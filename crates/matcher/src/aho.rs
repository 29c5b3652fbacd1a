//! The Aho-Corasick multi-pattern automaton.

use std::collections::VecDeque;

/// A literal match: which pattern, ending where.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LiteralMatch {
    /// Index of the pattern in construction order.
    pub pattern: usize,
    /// Byte offset one past the match's last byte.
    pub end: usize,
}

#[derive(Clone, Debug)]
struct Node {
    // Dense next-state table; u32::MAX means "no transition yet".
    next: [u32; 256],
    fail: u32,
    // Indices of patterns ending at this node (including via suffix links,
    // folded in during construction).
    outputs: Vec<u32>,
}

impl Node {
    fn new() -> Self {
        Node { next: [u32::MAX; 256], fail: 0, outputs: Vec::new() }
    }
}

/// A compiled Aho-Corasick automaton over byte patterns.
///
/// Matching runs in `O(haystack + matches)` regardless of pattern count —
/// the reason IDS engines prefilter with it before invoking per-rule
/// regexes.
///
/// # Example
///
/// ```
/// use speed_matcher::AhoCorasick;
///
/// let ac = AhoCorasick::new(&[b"he".to_vec(), b"she".to_vec(), b"hers".to_vec()]);
/// let matches = ac.find_all(b"ushers");
/// assert_eq!(matches.len(), 3); // "she", "he", "hers"
/// ```
#[derive(Clone, Debug)]
pub struct AhoCorasick {
    nodes: Vec<Node>,
    pattern_lens: Vec<usize>,
    case_insensitive: bool,
}

impl AhoCorasick {
    /// Builds an automaton over `patterns` (case-sensitive).
    pub fn new(patterns: &[Vec<u8>]) -> Self {
        AhoCorasick::with_case(patterns, false)
    }

    /// Builds an automaton, optionally folding ASCII case.
    pub fn with_case(patterns: &[Vec<u8>], case_insensitive: bool) -> Self {
        let mut nodes = vec![Node::new()];
        let mut pattern_lens = Vec::with_capacity(patterns.len());

        // Trie construction.
        for (idx, pattern) in patterns.iter().enumerate() {
            pattern_lens.push(pattern.len());
            let mut state = 0u32;
            for &raw in pattern {
                let byte = if case_insensitive { raw.to_ascii_lowercase() } else { raw };
                let next = nodes[state as usize].next[usize::from(byte)];
                state = if next == u32::MAX {
                    let new_state = nodes.len() as u32;
                    nodes[state as usize].next[usize::from(byte)] = new_state;
                    nodes.push(Node::new());
                    new_state
                } else {
                    next
                };
            }
            nodes[state as usize].outputs.push(idx as u32);
        }

        // BFS failure links, converting the trie into a dense DFA.
        let mut queue = VecDeque::new();
        for byte in 0..256 {
            let child = nodes[0].next[byte];
            if child == u32::MAX {
                nodes[0].next[byte] = 0;
            } else {
                nodes[child as usize].fail = 0;
                queue.push_back(child);
            }
        }
        while let Some(state) = queue.pop_front() {
            let fail = nodes[state as usize].fail;
            let fail_outputs = nodes[fail as usize].outputs.clone();
            nodes[state as usize].outputs.extend(fail_outputs);
            for byte in 0..256 {
                let child = nodes[state as usize].next[byte];
                if child == u32::MAX {
                    nodes[state as usize].next[byte] = nodes[fail as usize].next[byte];
                } else {
                    nodes[child as usize].fail = nodes[fail as usize].next[byte];
                    queue.push_back(child);
                }
            }
        }

        AhoCorasick { nodes, pattern_lens, case_insensitive }
    }

    /// Number of patterns compiled in.
    pub fn pattern_count(&self) -> usize {
        self.pattern_lens.len()
    }

    /// Number of automaton states (for capacity diagnostics).
    pub fn state_count(&self) -> usize {
        self.nodes.len()
    }

    /// Finds all pattern occurrences in `haystack`.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<LiteralMatch> {
        let mut out = Vec::new();
        self.for_each_match(haystack, |m| {
            out.push(m);
            true
        });
        out
    }

    /// Returns whether any pattern occurs (early exit on first match).
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        let mut found = false;
        self.for_each_match(haystack, |_| {
            found = true;
            false
        });
        found
    }

    /// Streams matches to `visit`; return `false` from the callback to stop.
    pub fn for_each_match(
        &self,
        haystack: &[u8],
        mut visit: impl FnMut(LiteralMatch) -> bool,
    ) {
        let mut state = 0u32;
        for (pos, &raw) in haystack.iter().enumerate() {
            let byte = if self.case_insensitive { raw.to_ascii_lowercase() } else { raw };
            state = self.nodes[state as usize].next[usize::from(byte)];
            for &pattern in &self.nodes[state as usize].outputs {
                let keep_going =
                    visit(LiteralMatch { pattern: pattern as usize, end: pos + 1 });
                if !keep_going {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterns(strs: &[&str]) -> Vec<Vec<u8>> {
        strs.iter().map(|s| s.as_bytes().to_vec()).collect()
    }

    #[test]
    fn classic_ushers_example() {
        let ac = AhoCorasick::new(&patterns(&["he", "she", "his", "hers"]));
        let matches = ac.find_all(b"ushers");
        let found: Vec<(usize, usize)> =
            matches.iter().map(|m| (m.pattern, m.end)).collect();
        assert!(found.contains(&(1, 4))); // she @ 4
        assert!(found.contains(&(0, 4))); // he @ 4
        assert!(found.contains(&(3, 6))); // hers @ 6
        assert_eq!(matches.len(), 3);
    }

    #[test]
    fn no_match() {
        let ac = AhoCorasick::new(&patterns(&["xyz"]));
        assert!(ac.find_all(b"abcabcabc").is_empty());
        assert!(!ac.is_match(b"abcabcabc"));
    }

    #[test]
    fn overlapping_occurrences() {
        let ac = AhoCorasick::new(&patterns(&["aa"]));
        assert_eq!(ac.find_all(b"aaaa").len(), 3);
    }

    #[test]
    fn pattern_at_start_and_end() {
        let ac = AhoCorasick::new(&patterns(&["ab"]));
        let matches = ac.find_all(b"abxxab");
        assert_eq!(matches.len(), 2);
        assert_eq!(matches[0].end, 2);
        assert_eq!(matches[1].end, 6);
    }

    #[test]
    fn case_insensitive_matching() {
        let ac = AhoCorasick::with_case(&patterns(&["Virus"]), true);
        assert!(ac.is_match(b"VIRUS detected"));
        assert!(ac.is_match(b"virus detected"));
        assert!(ac.is_match(b"ViRuS detected"));
        let cs = AhoCorasick::new(&patterns(&["Virus"]));
        assert!(!cs.is_match(b"VIRUS detected"));
    }

    #[test]
    fn early_exit_is_match() {
        let ac = AhoCorasick::new(&patterns(&["needle"]));
        let haystack = [b"needle".to_vec(), vec![b'x'; 1_000_000]].concat();
        // is_match must not visit the rest.
        assert!(ac.is_match(&haystack));
    }

    #[test]
    fn binary_patterns() {
        let ac = AhoCorasick::new(&[vec![0x00, 0xFF, 0x00], vec![0xDE, 0xAD]]);
        let haystack = [0x01, 0x00, 0xFF, 0x00, 0xDE, 0xAD, 0xBE];
        let matches = ac.find_all(&haystack);
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn many_patterns_shared_prefixes() {
        let pats: Vec<Vec<u8>> =
            (0..500).map(|i| format!("prefix-{i:03}").into_bytes()).collect();
        let ac = AhoCorasick::new(&pats);
        assert_eq!(ac.pattern_count(), 500);
        let matches = ac.find_all(b"xx prefix-042 yy prefix-499 zz");
        assert_eq!(matches.len(), 2);
        assert!(matches.iter().any(|m| m.pattern == 42));
        assert!(matches.iter().any(|m| m.pattern == 499));
    }

    #[test]
    fn duplicate_patterns_both_reported() {
        let ac = AhoCorasick::new(&patterns(&["dup", "dup"]));
        let matches = ac.find_all(b"a dup b");
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn empty_haystack() {
        let ac = AhoCorasick::new(&patterns(&["a"]));
        assert!(ac.find_all(b"").is_empty());
    }

    #[test]
    fn suffix_patterns_fold_into_outputs() {
        // "abcde" contains "bcd" which contains "cd": all three must be
        // reported at the right positions via failure-link output folding.
        let ac = AhoCorasick::new(&patterns(&["abcde", "bcd", "cd"]));
        let matches = ac.find_all(b"xabcdex");
        let found: Vec<(usize, usize)> =
            matches.iter().map(|m| (m.pattern, m.end)).collect();
        assert!(found.contains(&(2, 5))); // cd ends at 5
        assert!(found.contains(&(1, 5))); // bcd ends at 5
        assert!(found.contains(&(0, 6))); // abcde ends at 6
    }

    #[test]
    fn throughput_is_rule_count_independent() {
        // Linear scanning: 10× the patterns must not mean 10× the time.
        let haystack: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let small = AhoCorasick::new(
            &(0..100).map(|i| format!("sig{i:05}").into_bytes()).collect::<Vec<_>>(),
        );
        let large = AhoCorasick::new(
            &(0..1000).map(|i| format!("sig{i:05}").into_bytes()).collect::<Vec<_>>(),
        );
        let time = |ac: &AhoCorasick| {
            let start = std::time::Instant::now();
            std::hint::black_box(ac.find_all(std::hint::black_box(&haystack)));
            start.elapsed()
        };
        // A single sample can be several times too slow when a parallel
        // test preempts the scan, so compare the fastest of several samples,
        // interleaved so that both automata see the same background load.
        let (mut small_time, mut large_time) =
            (std::time::Duration::MAX, std::time::Duration::MAX);
        for _ in 0..7 {
            small_time = small_time.min(time(&small));
            large_time = large_time.min(time(&large));
        }
        let small_time = small_time.max(std::time::Duration::from_micros(1));
        assert!(
            large_time < small_time * 5,
            "large {large_time:?} vs small {small_time:?}"
        );
    }
}
