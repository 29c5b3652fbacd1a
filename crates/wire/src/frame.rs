//! Length-prefixed framing for stream transports (TCP deployments of the
//! `ResultStore`).
//!
//! A frame is a 4-byte little-endian length followed by that many payload
//! bytes. Frames are capped at [`MAX_FRAME_LEN`] to bound allocation under
//! hostile input.

// hot-path: deny-clone

use std::io::{self, Read, Write};

/// Maximum payload bytes per frame (64 MiB) — larger results should be
/// chunked by the application.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Writes one frame to `writer`, header and payload in one `write_all`:
/// on a `TCP_NODELAY` socket a frame leaves as one segment and, unless the
/// socket takes it short, one syscall.
///
/// A mutable reference to any `Write` works as well (`&mut stream`).
///
/// # Errors
///
/// Returns an I/O error from the underlying writer, or
/// [`io::ErrorKind::InvalidInput`] if `payload` exceeds [`MAX_FRAME_LEN`].
pub fn write_frame<W: Write>(mut writer: W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds limit", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Reads one frame from `reader`.
///
/// # Errors
///
/// Returns an I/O error on stream failure, [`io::ErrorKind::UnexpectedEof`]
/// on truncation, or [`io::ErrorKind::InvalidData`] if the declared length
/// exceeds [`MAX_FRAME_LEN`].
pub fn read_frame<R: Read>(mut reader: R) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    reader.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("declared frame length {len} exceeds limit"),
        ));
    }
    // Grow in bounded chunks instead of trusting the header with one big
    // allocation: a hostile 4-byte prefix declaring MAX_FRAME_LEN would
    // otherwise cost 64 MiB before the stream proves it has the bytes. Each
    // chunk is read straight into the payload.
    let mut payload = Vec::new();
    while payload.len() < len {
        let filled = payload.len();
        payload.resize(len.min(filled + READ_CHUNK_LEN), 0);
        reader.read_exact(&mut payload[filled..])?;
    }
    Ok(payload)
}

/// Chunk size for incremental frame reads: a payload buffer is never more
/// than this many bytes longer than what the peer has supplied, so
/// allocation grows only as fast as the bytes arrive.
const READ_CHUNK_LEN: usize = 64 * 1024;

/// Outcome of one [`FrameReader::poll`] call against a non-blocking stream.
#[derive(Debug)]
pub enum FrameProgress {
    /// A complete frame payload was assembled.
    Frame(Vec<u8>),
    /// The stream has no more bytes right now (`WouldBlock`); poll again
    /// when the socket is readable.
    Pending,
    /// The peer closed the stream cleanly on a frame boundary.
    Closed,
}

/// Incremental frame reader for non-blocking streams.
///
/// An event-loop server cannot use [`read_frame`] — it blocks mid-frame.
/// `FrameReader` holds the partial header/payload between readiness events
/// and hands back a [`FrameProgress::Frame`] only once all declared bytes
/// have arrived. One reader serves one connection for its lifetime; call
/// [`poll`](FrameReader::poll) in a loop on each readable event until it
/// returns [`FrameProgress::Pending`].
#[derive(Debug, Default)]
pub struct FrameReader {
    header: [u8; 4],
    header_filled: usize,
    /// Declared payload length once the header is complete.
    want: Option<usize>,
    /// The payload so far: `filled` bytes read, then at most
    /// [`READ_CHUNK_LEN`] zeroed bytes that the next reads fill.
    payload: Vec<u8>,
    filled: usize,
}

impl FrameReader {
    /// A reader with no partial frame buffered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a frame is partially read — the caller should arm a
    /// per-frame deadline while this is true, so a stalled peer cannot
    /// hold a connection slot forever.
    pub fn mid_frame(&self) -> bool {
        self.header_filled > 0 || self.want.is_some()
    }

    /// Advances the frame state machine with whatever `reader` can supply
    /// without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] if the declared length
    /// exceeds [`MAX_FRAME_LEN`], [`io::ErrorKind::UnexpectedEof`] if the
    /// peer closes mid-frame, or any other I/O error from the stream.
    pub fn poll<R: Read>(&mut self, reader: &mut R) -> io::Result<FrameProgress> {
        // Phase 1: accumulate the 4-byte length header.
        while self.want.is_none() {
            match reader.read(&mut self.header[self.header_filled..]) {
                Ok(0) => {
                    return if self.header_filled == 0 {
                        Ok(FrameProgress::Closed)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "peer closed mid-header",
                        ))
                    };
                }
                Ok(n) => {
                    self.header_filled += n;
                    if self.header_filled == 4 {
                        let len = u32::from_le_bytes(self.header) as usize;
                        if len > MAX_FRAME_LEN {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("declared frame length {len} exceeds limit"),
                            ));
                        }
                        self.want = Some(len);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(FrameProgress::Pending)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }

        // Phase 2: read the payload straight into its buffer, which grows
        // one bounded chunk ahead of the bytes that have arrived.
        let want = self.want.unwrap_or(0);
        while self.filled < want {
            let end = want.min(self.filled + READ_CHUNK_LEN);
            if self.payload.len() < end {
                self.payload.resize(end, 0);
            }
            match reader.read(&mut self.payload[self.filled..end]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-payload",
                    ))
                }
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(FrameProgress::Pending)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }

        self.header_filled = 0;
        self.want = None;
        self.filled = 0;
        Ok(FrameProgress::Frame(std::mem::take(&mut self.payload)))
    }
}

/// Buffered frame writer for non-blocking streams.
///
/// Frames are queued whole ([`queue`](FrameWriter::queue)) and drained with
/// [`flush`](FrameWriter::flush) as the socket accepts bytes; a short write
/// leaves the tail buffered for the next writable event instead of
/// blocking the event loop.
#[derive(Debug, Default)]
pub struct FrameWriter {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the stream.
    sent: usize,
}

impl FrameWriter {
    /// A writer with nothing buffered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether buffered bytes are still waiting for a writable socket —
    /// the caller should poll for write readiness while this is true.
    pub fn has_pending(&self) -> bool {
        self.sent < self.buf.len()
    }

    /// Queues one length-prefixed frame behind any pending bytes.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] if `payload` exceeds
    /// [`MAX_FRAME_LEN`].
    pub fn queue(&mut self, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame of {} bytes exceeds limit", payload.len()),
            ));
        }
        // Compact lazily: reclaim sent bytes before appending more.
        if self.sent > 0 {
            self.buf.drain(..self.sent);
            self.sent = 0;
        }
        self.buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(payload);
        Ok(())
    }

    /// Writes as much buffered data as the stream accepts. Returns `true`
    /// once the buffer is fully drained.
    ///
    /// # Errors
    ///
    /// Propagates stream errors other than `WouldBlock`/`Interrupted`.
    pub fn flush<W: Write>(&mut self, writer: &mut W) -> io::Result<bool> {
        while self.sent < self.buf.len() {
            match writer.write(&self.buf[self.sent..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "stream accepted zero bytes",
                    ))
                }
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.sent = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_single_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
    }

    #[test]
    fn roundtrip_multiple_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"one").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"three").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"one");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"three");
    }

    #[test]
    fn truncated_frame_is_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame(Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversize_declared_length_rejected() {
        let mut buf = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 16]);
        let err = read_frame(Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn multi_chunk_payload_roundtrips() {
        let payload: Vec<u8> =
            (0..READ_CHUNK_LEN * 2 + 17).map(|i| (i % 251) as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert_eq!(read_frame(Cursor::new(buf)).unwrap(), payload);
    }

    #[test]
    fn huge_declared_length_with_no_payload_is_eof_not_alloc() {
        // Header honestly within the cap, but the stream ends immediately:
        // the incremental reader must fail with EOF after at most one chunk
        // rather than allocating the declared size up front.
        let buf = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
        let err = read_frame(Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    /// A `Write` that counts its `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        out: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        let mut writer = CountingWriter::default();
        let payload = vec![7u8; 25_000];
        write_frame(&mut writer, &payload).unwrap();
        assert_eq!(writer.writes, 1);
        write_frame(&mut writer, b"").unwrap();
        assert_eq!(writer.writes, 2);
        let mut cursor = Cursor::new(writer.out);
        assert_eq!(read_frame(&mut cursor).unwrap(), payload);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
    }

    /// A frame that arrives a few bytes per read, across chunk boundaries,
    /// comes out whole, and the buffer never runs more than one chunk
    /// ahead of the bytes that arrived.
    #[test]
    fn frame_reader_reads_a_multi_chunk_payload_in_pieces() {
        let payload: Vec<u8> =
            (0..READ_CHUNK_LEN * 2 + 17).map(|i| (i % 251) as u8).collect();
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        let mut steps = Vec::new();
        for piece in framed.chunks(40_000) {
            steps.extend([None, Some(piece)]);
        }
        let mut stream = Scripted::new(steps);
        let mut reader = FrameReader::new();
        loop {
            match reader.poll(&mut stream).unwrap() {
                FrameProgress::Frame(got) => {
                    assert_eq!(got, payload);
                    break;
                }
                FrameProgress::Pending => {
                    assert!(reader.payload.len() <= reader.filled + READ_CHUNK_LEN);
                }
                FrameProgress::Closed => panic!("closed mid-frame"),
            }
        }
        assert!(matches!(reader.poll(&mut stream).unwrap(), FrameProgress::Closed));
    }

    #[test]
    fn oversize_payload_rejected_on_write() {
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        let err = write_frame(Vec::new(), &huge).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    /// A `Read` that serves scripted steps: `Some(bytes)` delivers bytes,
    /// `None` returns `WouldBlock`; after the script, EOF.
    struct Scripted {
        steps: std::collections::VecDeque<Option<Vec<u8>>>,
    }

    impl Scripted {
        fn new(steps: Vec<Option<&[u8]>>) -> Self {
            Scripted { steps: steps.into_iter().map(|s| s.map(|b| b.to_vec())).collect() }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.steps.pop_front() {
                Some(Some(bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.steps.push_front(Some(bytes[n..].to_vec()));
                    }
                    Ok(n)
                }
                Some(None) => Err(io::Error::from(io::ErrorKind::WouldBlock)),
                None => Ok(0),
            }
        }
    }

    #[test]
    fn frame_reader_reassembles_across_would_blocks() {
        let mut framed = Vec::new();
        write_frame(&mut framed, b"split me").unwrap();
        // One byte of header, stall, rest of header, stall, payload split.
        let mut stream = Scripted::new(vec![
            Some(&framed[..1]),
            None,
            Some(&framed[1..4]),
            None,
            Some(&framed[4..7]),
            None,
            Some(&framed[7..]),
        ]);
        let mut reader = FrameReader::new();
        assert!(matches!(reader.poll(&mut stream).unwrap(), FrameProgress::Pending));
        assert!(reader.mid_frame(), "partial header must arm the frame deadline");
        assert!(matches!(reader.poll(&mut stream).unwrap(), FrameProgress::Pending));
        assert!(matches!(reader.poll(&mut stream).unwrap(), FrameProgress::Pending));
        match reader.poll(&mut stream).unwrap() {
            FrameProgress::Frame(payload) => assert_eq!(payload, b"split me"),
            other => panic!("expected a frame, got {other:?}"),
        }
        assert!(!reader.mid_frame());
        assert!(matches!(reader.poll(&mut stream).unwrap(), FrameProgress::Closed));
    }

    #[test]
    fn frame_reader_yields_back_to_back_frames() {
        let mut framed = Vec::new();
        write_frame(&mut framed, b"one").unwrap();
        write_frame(&mut framed, b"two").unwrap();
        let mut stream = Scripted::new(vec![Some(&framed[..])]);
        let mut reader = FrameReader::new();
        match reader.poll(&mut stream).unwrap() {
            FrameProgress::Frame(payload) => assert_eq!(payload, b"one"),
            other => panic!("expected first frame, got {other:?}"),
        }
        match reader.poll(&mut stream).unwrap() {
            FrameProgress::Frame(payload) => assert_eq!(payload, b"two"),
            other => panic!("expected second frame, got {other:?}"),
        }
    }

    #[test]
    fn frame_reader_rejects_oversized_and_truncated_frames() {
        let oversize = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
        let mut reader = FrameReader::new();
        let err = reader.poll(&mut Scripted::new(vec![Some(&oversize)])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut framed = Vec::new();
        write_frame(&mut framed, b"cut short").unwrap();
        framed.truncate(framed.len() - 3);
        let mut reader = FrameReader::new();
        let err = reader.poll(&mut Scripted::new(vec![Some(&framed)])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        let mut reader = FrameReader::new();
        let err = reader.poll(&mut Scripted::new(vec![Some(&[0u8; 2])])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "mid-header close");
    }

    /// A `Write` accepting at most `quota` bytes per call, `WouldBlock`
    /// every other call.
    struct Dribble {
        out: Vec<u8>,
        quota: usize,
        block_next: bool,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if std::mem::replace(&mut self.block_next, true) {
                self.block_next = false;
                return Err(io::Error::from(io::ErrorKind::WouldBlock));
            }
            let n = buf.len().min(self.quota);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_writer_drains_across_partial_writes() {
        let mut writer = FrameWriter::new();
        writer.queue(b"first frame").unwrap();
        writer.queue(b"second").unwrap();
        let mut sink = Dribble { out: Vec::new(), quota: 5, block_next: false };
        let mut rounds = 0;
        while !writer.flush(&mut sink).unwrap() {
            assert!(writer.has_pending());
            rounds += 1;
            assert!(rounds < 100, "writer must make progress");
        }
        assert!(!writer.has_pending());
        let mut cursor = Cursor::new(sink.out);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"first frame");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"second");
    }

    #[test]
    fn frame_writer_rejects_oversize_payload() {
        let mut writer = FrameWriter::new();
        let err = writer.queue(&vec![0u8; MAX_FRAME_LEN + 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!writer.has_pending());
    }
}
