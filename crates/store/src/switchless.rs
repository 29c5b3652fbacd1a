//! The switchless call engine: one resident in-enclave worker per I/O
//! thread, reached through a synchronous [`Lane`].
//!
//! Classic flow: every hot-path store op pays an ECALL world switch
//! (`ResultStore::handle` → `ecall_with_bytes`). Switchless flow: each
//! I/O thread owns a lane to a dedicated worker thread that enters the
//! enclave **once** (one real ECALL for residence) and then serves every
//! request from inside. As with an SGX SDK switchless call, the call is
//! synchronous for its caller: the I/O thread posts the request on its
//! lane and blocks for the answer, exactly where the classic path blocks
//! in its inline ECALL. So a lane never holds more than one request.
//! Requests and responses still cross the boundary as bytes (boundary-copy
//! costs are charged), but no further world switches happen: the
//! enclave's `transitions()` counter stays flat while `switchless_calls`
//! grows.

use std::io;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use speed_wire::Message;

use crate::store::ResultStore;

/// One I/O thread's call path to its resident worker. Dropping the lane
/// ends the worker.
#[derive(Debug)]
pub(crate) struct Lane {
    requests: Sender<Message>,
    responses: Receiver<Message>,
}

impl Lane {
    /// Has the worker serve `request` and waits for its answer.
    ///
    /// `Err` hands the request back when the worker is gone, so the caller
    /// can serve it through the classic ECALL path. `Ok(None)` means the
    /// worker died while it served the request, which is then lost.
    // The Err variant IS the unserved request: boxing it would add an
    // allocation to the fallback for no benefit.
    #[allow(clippy::result_large_err)]
    pub(crate) fn call(&self, request: Message) -> Result<Option<Message>, Message> {
        self.requests.send(request).map_err(|unsent| unsent.0)?;
        Ok(self.responses.recv().ok())
    }
}

/// Spawns the resident worker of lane `index` and returns the lane with
/// the worker's handle. The worker exits once the lane is dropped.
pub(crate) fn spawn_worker(
    store: Arc<ResultStore>,
    index: usize,
) -> io::Result<(Lane, JoinHandle<()>)> {
    let (requests, inbox) = channel::<Message>();
    let (outbox, responses) = channel();
    let worker = std::thread::Builder::new()
        .name(format!("speed-switchless-{index}"))
        .spawn(move || {
            let enclave = store.enclave();
            // One real ECALL to take up residence; everything below runs
            // "inside", so the per-request handle() calls are switchless.
            // A panic drops `inbox` (moved into the loop) before `outbox`,
            // so once a call finds the worker dead, every later call gets
            // its request handed back.
            enclave.ecall("switchless_worker_enter", || {
                let _resident = enclave.enter_switchless();
                for request in inbox {
                    if outbox.send(store.handle(request)).is_err() {
                        return;
                    }
                }
            });
        })?;
    Ok((Lane { requests, responses }, worker))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use speed_enclave::{CostModel, Platform};
    use speed_wire::{AppId, CompTag, Record};

    #[test]
    fn requests_complete_without_transitions() {
        let platform = Platform::new(CostModel::default_sgx());
        let store =
            Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap());
        let (lane, worker) = spawn_worker(Arc::clone(&store), 0).unwrap();
        // A served call shows the worker took residence (its one ECALL).
        assert!(matches!(lane.call(Message::StatsRequest), Ok(Some(_))));
        let baseline = store.enclave().stats();
        assert_eq!(baseline.ecalls, 1);

        let tag = CompTag::from_bytes([3u8; 32]);
        let record = Record {
            challenge: vec![1u8; 32],
            wrapped_key: [2u8; 16],
            nonce: [3u8; 12],
            boxed_result: vec![4u8; 16],
        };
        let put = lane.call(Message::PutRequest { app: AppId(1), tag, record });
        assert!(matches!(put, Ok(Some(Message::PutResponse(body))) if body.accepted));
        let get = lane.call(Message::GetRequest { app: AppId(1), tag });
        assert!(matches!(get, Ok(Some(Message::GetResponse(body))) if body.found));

        let after = store.enclave().stats();
        assert_eq!(
            after.transitions(),
            baseline.transitions(),
            "hot-path ops must not cross the boundary"
        );
        assert!(after.switchless_calls > baseline.switchless_calls);
        assert!(
            after.boundary_bytes > baseline.boundary_bytes,
            "lane payloads still pay boundary-copy costs"
        );
        drop(lane);
        worker.join().unwrap();
    }

    #[test]
    fn a_lane_whose_worker_is_gone_hands_the_request_back() {
        let (requests, inbox) = channel();
        let (_outbox, responses) = channel();
        let lane = Lane { requests, responses };
        drop(inbox);
        let tag = CompTag::from_bytes([4u8; 32]);
        let bounced = lane.call(Message::GetRequest { app: AppId(1), tag });
        assert!(
            matches!(bounced, Err(Message::GetRequest { app: AppId(1), .. })),
            "the request must come back for the ECALL fallback"
        );
    }
}
