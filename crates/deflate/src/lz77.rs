//! LZ77 tokenization with hash-chain match finding and optional lazy
//! matching, structurally equivalent to zlib's deflate front end.

/// Minimum match length worth encoding.
pub const MIN_MATCH: usize = 3;
/// Maximum match length (RFC 1951).
pub const MAX_MATCH: usize = 258;
/// Maximum back-reference distance (32 KiB window).
pub const MAX_DISTANCE: usize = 32 * 1024;

const HASH_BITS: usize = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Compression effort level, controlling match-search depth and lazy
/// evaluation — the analogue of zlib levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Level {
    /// Shallow chains, greedy parsing (zlib ~1).
    Fast,
    /// Moderate chains, lazy parsing (zlib ~6).
    #[default]
    Default,
    /// Deep chains, lazy parsing (zlib ~9).
    Best,
}

impl Level {
    fn max_chain(self) -> usize {
        match self {
            Level::Fast => 8,
            Level::Default => 64,
            Level::Best => 512,
        }
    }

    fn lazy(self) -> bool {
        !matches!(self, Level::Fast)
    }

    /// Matches at least this long stop the search early.
    fn good_enough(self) -> usize {
        match self {
            Level::Fast => 16,
            Level::Default => 64,
            Level::Best => MAX_MATCH,
        }
    }
}

/// One LZ77 token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Token {
    /// A literal byte.
    Literal(u8),
    /// A back-reference of `len` bytes starting `dist` bytes back.
    Match {
        /// Match length in `MIN_MATCH..=MAX_MATCH`.
        len: u16,
        /// Distance in `1..=MAX_DISTANCE`.
        dist: u16,
    },
}

/// Hash bucket of the `MIN_MATCH` bytes that open `window`: the top
/// `HASH_BITS` bits of a 32-bit multiplicative hash.
fn hash3(window: &[u8]) -> u16 {
    let v =
        (u32::from(window[0]) << 16) | (u32::from(window[1]) << 8) | u32::from(window[2]);
    (v.wrapping_mul(0x9E3779B1) >> (32 - HASH_BITS)) as u16
}

/// `head` entry of a hash bucket no position has been inserted into.
const NO_POS: u32 = u32::MAX;

/// Length of the common prefix of `a` and `b`, compared 8 bytes at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut len = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("8-byte chunk"));
        let y = u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
        let diff = x ^ y;
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    len + a[len..].iter().zip(&b[len..]).take_while(|(x, y)| x == y).count()
}

/// Hash chains over the input. Positions are `u32`: an input of 4 GiB or
/// more cannot round-trip anyway, because the container header stores the
/// original length as a `u32`.
struct Matcher<'a> {
    data: &'a [u8],
    /// `hash3` of every position with `MIN_MATCH` bytes left, computed in
    /// one pass up front.
    hashes: Vec<u16>,
    /// The latest inserted position per hash bucket, or [`NO_POS`].
    head: Vec<u32>,
    /// Per position, the distance back to the previous inserted position
    /// with the same hash, or 0 when that one is more than `MAX_DISTANCE`
    /// back (or absent). A walk stops at the first candidate that far, and
    /// a longer link only leads farther, so nothing reachable is lost.
    prev: Vec<u16>,
    max_chain: usize,
    good_enough: usize,
}

impl<'a> Matcher<'a> {
    fn new(data: &'a [u8], level: Level) -> Self {
        Matcher {
            data,
            hashes: data.windows(MIN_MATCH).map(hash3).collect(),
            head: vec![NO_POS; HASH_SIZE],
            prev: vec![0; data.len()],
            max_chain: level.max_chain(),
            good_enough: level.good_enough(),
        }
    }

    fn insert(&mut self, pos: usize) {
        let Some(&h) = self.hashes.get(pos) else { return };
        let h = usize::from(h);
        let last = self.head[h];
        if last != NO_POS && pos - last as usize <= MAX_DISTANCE {
            self.prev[pos] = (pos - last as usize) as u16;
        }
        self.head[h] = pos as u32;
    }

    /// Finds the longest match at `pos` that is longer than `floor`
    /// (at least `MIN_MATCH - 1`), returning `(len, dist)`.
    ///
    /// With `floor < good_enough` this is the full search's match whenever
    /// that one is longer than `floor` (zlib's `prev_length` floor): a
    /// candidate beats `floor` only if it agrees on bytes `0..=floor`, and
    /// the good-enough break still fires at the first candidate that
    /// reaches `good_enough`.
    fn find(&self, pos: usize, floor: usize) -> Option<(usize, usize)> {
        let data = self.data;
        if pos + MIN_MATCH > data.len() {
            return None;
        }
        let max_len = (data.len() - pos).min(MAX_MATCH);
        let mut best_len = floor;
        let head = self.head[usize::from(self.hashes[pos])];
        if best_len >= max_len || head == NO_POS {
            return None;
        }
        // Past `max_len` no later candidate can win, so stopping there as
        // well as at `good_enough` returns the same match.
        let nice = self.good_enough.min(max_len);
        let window = &data[..pos + max_len];
        let scan = &window[pos..];
        let oldest = pos.saturating_sub(MAX_DISTANCE);
        // A candidate can beat `best_len` only if it agrees on the bytes
        // at `best_len - 1` and `best_len`: check those first.
        let tail = |at: usize| u16::from_le_bytes([window[at - 1], window[at]]);
        let mut scan_tail = tail(pos + best_len);
        let mut best_dist = 0usize;
        let mut cand = head as usize;
        let mut chain = self.max_chain;
        while cand >= oldest {
            if tail(cand + best_len) == scan_tail {
                let len = common_prefix(&window[cand..cand + max_len], scan);
                if len > best_len {
                    best_len = len;
                    best_dist = pos - cand;
                    if len >= nice {
                        break;
                    }
                    scan_tail = tail(pos + best_len);
                }
            }
            chain -= 1;
            let back = usize::from(self.prev[cand]);
            if chain == 0 || back == 0 {
                break;
            }
            cand -= back;
        }
        (best_dist != 0).then_some((best_len, best_dist))
    }
}

/// Tokenizes `data` with greedy or lazy LZ77 parsing per `level`.
///
/// `data` must be shorter than 4 GiB (see [`Matcher`]).
pub fn tokenize(data: &[u8], level: Level) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(data.len() / 3);
    let mut matcher = Matcher::new(data, level);
    let lazy = level.lazy();
    // The lookahead only needs matches that can beat the current one;
    // capped below `good_enough` so its early break stays exact.
    let lookahead_cap = level.good_enough() - 1;
    let mut pos = 0usize;
    // The match at `pos` when the previous lookahead already found it.
    let mut carried = None;
    while pos < data.len() {
        let Some((len, dist)) =
            carried.take().or_else(|| matcher.find(pos, MIN_MATCH - 1))
        else {
            tokens.push(Token::Literal(data[pos]));
            matcher.insert(pos);
            pos += 1;
            continue;
        };
        let mut first_insert = pos;
        // Lazy evaluation: if the next position has a strictly longer
        // match, emit a literal instead (zlib's trick), and keep that match.
        if lazy && len < MAX_MATCH && pos + 1 < data.len() {
            matcher.insert(pos);
            first_insert += 1;
            if let Some(next) = matcher.find(pos + 1, len.min(lookahead_cap)) {
                if next.0 > len {
                    tokens.push(Token::Literal(data[pos]));
                    pos += 1;
                    carried = Some(next);
                    continue;
                }
            }
        }
        tokens.push(Token::Match { len: len as u16, dist: dist as u16 });
        for p in first_insert..pos + len {
            matcher.insert(p);
        }
        pos += len;
    }
    tokens
}

/// Expands tokens back to bytes (reference implementation for tests).
#[cfg(test)]
pub fn detokenize(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for token in tokens {
        match *token {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let start = out.len() - usize::from(dist);
                for i in 0..usize::from(len) {
                    let byte = out[start + i];
                    out.push(byte);
                }
            }
        }
    }
    out
}

/// The tokenizer as it was before the `u32` chains, the 8-byte compares,
/// the floored lookahead and the carried lookahead result: the oracle the
/// one above must match token for token.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Level, Token, HASH_BITS, HASH_SIZE, MAX_DISTANCE, MAX_MATCH, MIN_MATCH};

    fn hash3(data: &[u8], pos: usize) -> usize {
        let v = (usize::from(data[pos]) << 16)
            | (usize::from(data[pos + 1]) << 8)
            | usize::from(data[pos + 2]);
        (v.wrapping_mul(0x9E3779B1) >> (32 - HASH_BITS)) & (HASH_SIZE - 1)
    }

    struct Matcher<'a> {
        data: &'a [u8],
        head: Vec<i64>,
        prev: Vec<i64>,
        max_chain: usize,
        good_enough: usize,
    }

    impl<'a> Matcher<'a> {
        fn new(data: &'a [u8], level: Level) -> Self {
            Matcher {
                data,
                head: vec![-1; HASH_SIZE],
                prev: vec![-1; data.len()],
                max_chain: level.max_chain(),
                good_enough: level.good_enough(),
            }
        }

        fn insert(&mut self, pos: usize) {
            if pos + MIN_MATCH > self.data.len() {
                return;
            }
            let h = hash3(self.data, pos);
            self.prev[pos] = self.head[h];
            self.head[h] = pos as i64;
        }

        fn find(&self, pos: usize) -> Option<(usize, usize)> {
            if pos + MIN_MATCH > self.data.len() {
                return None;
            }
            let max_len = (self.data.len() - pos).min(MAX_MATCH);
            let h = hash3(self.data, pos);
            let mut candidate = self.head[h];
            let mut best_len = MIN_MATCH - 1;
            let mut best_dist = 0usize;
            let mut chain = 0usize;
            while candidate >= 0 && chain < self.max_chain {
                let cand = candidate as usize;
                if pos - cand > MAX_DISTANCE {
                    break;
                }
                if best_len < max_len
                    && self.data[cand + best_len] == self.data[pos + best_len]
                {
                    let mut len = 0usize;
                    while len < max_len && self.data[cand + len] == self.data[pos + len] {
                        len += 1;
                    }
                    if len > best_len {
                        best_len = len;
                        best_dist = pos - cand;
                        if len >= self.good_enough {
                            break;
                        }
                    }
                }
                candidate = self.prev[cand];
                chain += 1;
            }
            (best_len >= MIN_MATCH).then_some((best_len, best_dist))
        }
    }

    pub fn tokenize(data: &[u8], level: Level) -> Vec<Token> {
        let mut tokens = Vec::with_capacity(data.len() / 3);
        let mut matcher = Matcher::new(data, level);
        let lazy = level.lazy();
        let mut pos = 0usize;
        while pos < data.len() {
            match matcher.find(pos) {
                Some((len, dist)) => {
                    let mut take = true;
                    if lazy && len < MAX_MATCH && pos + 1 < data.len() {
                        matcher.insert(pos);
                        if let Some((next_len, _)) = matcher.find(pos + 1) {
                            if next_len > len {
                                tokens.push(Token::Literal(data[pos]));
                                pos += 1;
                                take = false;
                            }
                        }
                        if take {
                            tokens.push(Token::Match {
                                len: len as u16,
                                dist: dist as u16,
                            });
                            for p in pos + 1..pos + len {
                                matcher.insert(p);
                            }
                            pos += len;
                        }
                    } else {
                        tokens.push(Token::Match { len: len as u16, dist: dist as u16 });
                        for p in pos..pos + len {
                            matcher.insert(p);
                        }
                        pos += len;
                    }
                }
                None => {
                    tokens.push(Token::Literal(data[pos]));
                    matcher.insert(pos);
                    pos += 1;
                }
            }
        }
        tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testrand::{TestRng, LEVELS};

    #[test]
    fn literal_only_for_unique_bytes() {
        let data = b"abcdefgh";
        let tokens = tokenize(data, Level::Default);
        assert!(tokens.iter().all(|t| matches!(t, Token::Literal(_))));
        assert_eq!(detokenize(&tokens), data);
    }

    #[test]
    fn repeated_pattern_produces_matches() {
        let data = b"abcabcabcabcabc";
        let tokens = tokenize(data, Level::Default);
        assert!(tokens.iter().any(|t| matches!(t, Token::Match { .. })));
        assert_eq!(detokenize(&tokens), data);
        assert!(tokens.len() < data.len());
    }

    #[test]
    fn overlapping_match_run() {
        // "aaaa..." uses a dist-1 overlapping match.
        let data = vec![b'a'; 300];
        let tokens = tokenize(&data, Level::Default);
        assert_eq!(detokenize(&tokens), data);
        let has_overlap =
            tokens.iter().any(|t| matches!(t, Token::Match { dist: 1, .. }));
        assert!(has_overlap);
    }

    #[test]
    fn max_match_length_respected() {
        let data = vec![b'z'; 4096];
        for token in tokenize(&data, Level::Best) {
            if let Token::Match { len, dist } = token {
                assert!(usize::from(len) <= MAX_MATCH);
                assert!(usize::from(dist) <= MAX_DISTANCE);
                assert!(usize::from(len) >= MIN_MATCH);
            }
        }
    }

    #[test]
    fn all_levels_roundtrip() {
        let data: Vec<u8> = (0..5000u32).map(|i| ((i * i) % 7) as u8 + b'a').collect();
        for level in LEVELS {
            assert_eq!(detokenize(&tokenize(&data, level)), data, "{level:?}");
        }
    }

    #[test]
    fn better_level_never_more_tokens_on_redundant_data() {
        let data = b"the cat sat on the mat; the cat sat on the hat".repeat(50);
        let fast = tokenize(&data, Level::Fast).len();
        let best = tokenize(&data, Level::Best).len();
        assert!(best <= fast, "best {best} vs fast {fast}");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(tokenize(b"", Level::Default).is_empty());
        assert_eq!(detokenize(&tokenize(b"a", Level::Default)), b"a");
        assert_eq!(detokenize(&tokenize(b"ab", Level::Default)), b"ab");
    }

    #[test]
    fn prop_tokenize_detokenize_roundtrip() {
        let mut rng = TestRng::new(0x17_77);
        for _ in 0..64 {
            let data = rng.bytes(2048);
            for level in LEVELS {
                assert_eq!(detokenize(&tokenize(&data, level)), data, "{level:?}");
            }
        }
    }
}
