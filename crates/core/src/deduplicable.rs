//! The developer-facing API (§IV-C): "The API is centered on a
//! `Deduplicable` object, which wraps the interaction with [the] underlying
//! trusted DedupRuntime, conversion between data formats, and all other
//! intermediate operations. […] To make a function deduplicable, the
//! developer only needs to create a Deduplicable version by providing the
//! aforementioned simple description, and then uses the new version as
//! normal. This usually requires a change of only 2 lines of code per
//! function call."

use std::sync::Arc;

use speed_wire::{from_bytes, to_bytes, WireDecode, WireEncode};

use crate::error::CoreError;
use crate::func::{FuncDesc, FuncIdentity};
use crate::runtime::{DedupOutcome, DedupRuntime};

/// A deduplicable version of a function.
///
/// Generic over the input type `I` (anything [`WireEncode`]), the output
/// type `O` (anything [`WireEncode`] + [`WireDecode`]), and the wrapped
/// function — mirroring the C++ template design of the paper's prototype,
/// which "allows it to accept, in principle, any functions".
///
/// # Example
///
/// The paper's Fig. 4 pattern — describe the function, wrap it, call the
/// wrapped version as normal:
///
/// ```
/// # use std::sync::Arc;
/// # use speed_core::{Deduplicable, DedupRuntime, FuncDesc, TrustedLibrary};
/// # use speed_enclave::{CostModel, Platform};
/// # use speed_store::{ResultStore, StoreConfig};
/// # use speed_wire::SessionAuthority;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let platform = Platform::new(CostModel::no_sgx());
/// # let store = Arc::new(ResultStore::new(&platform, StoreConfig::default())?);
/// # let authority = Arc::new(SessionAuthority::new());
/// # let mut lib = TrustedLibrary::new("zlib", "1.2.11");
/// # lib.register("int deflate(...)", b"deflate code");
/// # let runtime = DedupRuntime::builder(platform, b"app")
/// #     .in_process_store(store, authority)
/// #     .trusted_library(lib)
/// #     .build()?;
/// # fn deflate_wrapper(data: &Vec<u8>) -> Vec<u8> { data.clone() }
/// let dedup_deflate = Deduplicable::new(
///     &runtime,
///     FuncDesc::new("zlib", "1.2.11", "int deflate(...)"),
///     |data: &Vec<u8>| deflate_wrapper(data),
/// )?;
/// let compressed = dedup_deflate.call(&vec![1, 2, 3])?;
/// # let _ = compressed;
/// # Ok(())
/// # }
/// ```
pub struct Deduplicable<I, O, F>
where
    F: Fn(&I) -> O,
{
    runtime: Arc<DedupRuntime>,
    desc: FuncDesc,
    identity: FuncIdentity,
    function: F,
    _marker: std::marker::PhantomData<fn(&I) -> O>,
}

impl<I, O, F> std::fmt::Debug for Deduplicable<I, O, F>
where
    F: Fn(&I) -> O,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deduplicable").field("desc", &self.desc).finish_non_exhaustive()
    }
}

impl<I, O, F> Deduplicable<I, O, F>
where
    I: WireEncode,
    O: WireEncode + WireDecode,
    F: Fn(&I) -> O,
{
    /// Wraps `function` as a deduplicable computation described by `desc`.
    ///
    /// Verifies at construction time that the described function exists in
    /// one of the runtime's trusted libraries.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::FunctionNotTrusted`] if the description does
    /// not match any registered library function.
    pub fn new(
        runtime: &Arc<DedupRuntime>,
        desc: FuncDesc,
        function: F,
    ) -> Result<Self, CoreError> {
        let identity = runtime.resolve(&desc)?;
        Ok(Deduplicable {
            runtime: Arc::clone(runtime),
            desc,
            identity,
            function,
            _marker: std::marker::PhantomData,
        })
    }

    /// Calls the function with deduplication: reuses a stored result when
    /// the identical computation was performed before, executes the
    /// function otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on store/transport failure or if a reused
    /// result fails to deserialize as `O`.
    pub fn call(&self, input: &I) -> Result<O, CoreError> {
        self.call_traced(input).map(|(output, _)| output)
    }

    /// Like [`call`](Deduplicable::call), also reporting whether the result
    /// was reused ([`DedupOutcome::Hit`]) or computed.
    ///
    /// # Errors
    ///
    /// As [`call`](Deduplicable::call).
    pub fn call_traced(&self, input: &I) -> Result<(O, DedupOutcome), CoreError> {
        let input_bytes = to_bytes(input);
        let (result_bytes, outcome) =
            self.runtime.execute_raw(&self.identity, &input_bytes, |_| {
                to_bytes(&(self.function)(input))
            })?;
        let output = from_bytes::<O>(&result_bytes)?;
        Ok((output, outcome))
    }

    /// Calls the function over a batch of inputs, deduplicating each item
    /// independently (repeated items within the batch hit after their
    /// first occurrence).
    ///
    /// # Errors
    ///
    /// Stops at the first failing item, returning its error.
    pub fn call_many(&self, inputs: &[I]) -> Result<Vec<O>, CoreError> {
        inputs.iter().map(|input| self.call(input)).collect()
    }

    /// Like [`call_many`](Deduplicable::call_many), also reporting the
    /// per-item outcome.
    ///
    /// # Errors
    ///
    /// Stops at the first failing item, returning its error.
    pub fn call_many_traced(
        &self,
        inputs: &[I],
    ) -> Result<Vec<(O, DedupOutcome)>, CoreError> {
        inputs.iter().map(|input| self.call_traced(input)).collect()
    }

    /// The function description this wrapper was created with.
    pub fn desc(&self) -> &FuncDesc {
        &self.desc
    }

    /// The runtime this wrapper publishes through.
    pub fn runtime(&self) -> &Arc<DedupRuntime> {
        &self.runtime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::TrustedLibrary;
    use speed_enclave::{CostModel, Platform};
    use speed_store::{ResultStore, StoreConfig};
    use speed_wire::SessionAuthority;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn runtime() -> Arc<DedupRuntime> {
        let platform = Platform::new(CostModel::default_sgx());
        let store =
            Arc::new(ResultStore::new(&platform, StoreConfig::default()).unwrap());
        let authority = Arc::new(SessionAuthority::with_seed(2));
        let mut lib = TrustedLibrary::new("mathlib", "2.0");
        lib.register("sum(Vec<u32>)", b"sum code");
        lib.register("concat(String,String)", b"concat code");
        DedupRuntime::builder(platform, b"dedup-test-app")
            .in_process_store(store, authority)
            .trusted_library(lib)
            .build()
            .unwrap()
    }

    #[test]
    fn typed_roundtrip_with_dedup() {
        let rt = runtime();
        let executions = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&executions);
        let sum = Deduplicable::new(
            &rt,
            FuncDesc::new("mathlib", "2.0", "sum(Vec<u32>)"),
            move |v: &Vec<u32>| -> u64 {
                counter.fetch_add(1, Ordering::Relaxed);
                v.iter().map(|&x| u64::from(x)).sum()
            },
        )
        .unwrap();

        assert_eq!(sum.call(&vec![1, 2, 3]).unwrap(), 6);
        assert_eq!(sum.call(&vec![1, 2, 3]).unwrap(), 6);
        assert_eq!(executions.load(Ordering::Relaxed), 1);

        // Different input executes again.
        assert_eq!(sum.call(&vec![4, 5]).unwrap(), 9);
        assert_eq!(executions.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn call_traced_reports_outcomes() {
        let rt = runtime();
        let sum = Deduplicable::new(
            &rt,
            FuncDesc::new("mathlib", "2.0", "sum(Vec<u32>)"),
            |v: &Vec<u32>| -> u64 { v.iter().map(|&x| u64::from(x)).sum() },
        )
        .unwrap();
        let (_, first) = sum.call_traced(&vec![7]).unwrap();
        let (_, second) = sum.call_traced(&vec![7]).unwrap();
        assert_eq!(first, DedupOutcome::Miss);
        assert_eq!(second, DedupOutcome::Hit);
    }

    #[test]
    fn structured_input_output_types() {
        let rt = runtime();
        let concat = Deduplicable::new(
            &rt,
            FuncDesc::new("mathlib", "2.0", "concat(String,String)"),
            |pair: &(String, String)| -> String { format!("{}{}", pair.0, pair.1) },
        )
        .unwrap();
        let joined = concat.call(&("foo".to_string(), "bar".to_string())).unwrap();
        assert_eq!(joined, "foobar");
    }

    #[test]
    fn construction_fails_for_untrusted_function() {
        let rt = runtime();
        let result = Deduplicable::new(
            &rt,
            FuncDesc::new("unknown", "0.0", "nope()"),
            |x: &u32| *x,
        );
        assert!(matches!(result, Err(CoreError::FunctionNotTrusted { .. })));
    }

    #[test]
    fn two_wrappers_same_desc_share_results() {
        let rt = runtime();
        let desc = FuncDesc::new("mathlib", "2.0", "sum(Vec<u32>)");
        let first = Deduplicable::new(&rt, desc.clone(), |v: &Vec<u32>| -> u64 {
            v.iter().map(|&x| u64::from(x)).sum()
        })
        .unwrap();
        let second = Deduplicable::new(&rt, desc, |_: &Vec<u32>| -> u64 {
            panic!("second wrapper must reuse the first's result")
        })
        .unwrap();
        first.call(&vec![10, 20]).unwrap();
        assert_eq!(second.call(&vec![10, 20]).unwrap(), 30);
    }

    #[test]
    fn call_many_dedups_within_batch() {
        let rt = runtime();
        let executions = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&executions);
        let sum = Deduplicable::new(
            &rt,
            FuncDesc::new("mathlib", "2.0", "sum(Vec<u32>)"),
            move |v: &Vec<u32>| -> u64 {
                counter.fetch_add(1, Ordering::Relaxed);
                v.iter().map(|&x| u64::from(x)).sum()
            },
        )
        .unwrap();
        let batch = vec![vec![1u32, 2], vec![3], vec![1, 2], vec![3], vec![1, 2]];
        let results = sum.call_many(&batch).unwrap();
        assert_eq!(results, vec![3, 3, 3, 3, 3]);
        // Only the two distinct inputs executed.
        assert_eq!(executions.load(Ordering::Relaxed), 2);

        let traced = sum.call_many_traced(&batch).unwrap();
        let hits = traced.iter().filter(|(_, o)| *o == crate::DedupOutcome::Hit).count();
        assert_eq!(hits, 5); // all five are hits on the second pass
    }

    #[test]
    fn desc_accessor() {
        let rt = runtime();
        let sum = Deduplicable::new(
            &rt,
            FuncDesc::new("mathlib", "2.0", "sum(Vec<u32>)"),
            |v: &Vec<u32>| -> u64 { v.len() as u64 },
        )
        .unwrap();
        assert_eq!(sum.desc().library(), "mathlib");
        assert!(format!("{sum:?}").contains("mathlib"));
    }
}
