#!/usr/bin/env bash
# Grep lint: no new buffer copies on annotated hot paths.
#
# Any Rust source file carrying a `// hot-path: deny-clone` marker must not
# call `.clone()` or `.to_vec()` except on lines annotated with
# `// allow-clone: <reason>` — the annotation forces every copy on a hot
# path to justify itself in review. Scanning stops at the first
# `#[cfg(test)]` line of each file: test code clones freely.
#
# Usage: scripts/check_hotpath_clones.sh [repo-root]

set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

failures=0

while IFS= read -r file; do
    # Honest line numbers: walk the file once, stop at the test module.
    offenses=$(awk '
        /#\[cfg\(test\)\]/ { exit }
        (/\.clone\(\)/ || /\.to_vec\(\)/) && !/allow-clone:/ {
            printf "%s:%d: %s\n", FILENAME, FNR, $0
        }
    ' "$file")
    if [ -n "$offenses" ]; then
        echo "$offenses"
        failures=1
    fi
done < <(grep -rl --include='*.rs' '^// hot-path: deny-clone$' crates src 2>/dev/null)

# Files that must NEVER lose their marker: the streaming chunk path moves
# every chunk result as a shared `ResultBytes`, the digest derivation and
# result protection read every input and result byte of a call, the
# hot-cache fingerprint and the cache it keys read every input byte of a
# hot-cache hit, and the hardware crypto modules run over every hashed or
# sealed byte; a quiet marker removal would let per-call, per-chunk or
# per-block copies back in unseen.
required_markers=(
    crates/core/src/chunker.rs
    crates/core/src/stream.rs
    crates/core/src/result_bytes.rs
    crates/core/src/tag.rs
    crates/core/src/rce.rs
    crates/core/src/hotcache.rs
    crates/crypto/src/prf.rs
    crates/crypto/src/gcm_ni.rs
    crates/crypto/src/sha256_ni.rs
)
for file in "${required_markers[@]}"; do
    # A renamed or deleted file would otherwise drop out of the check unseen:
    # update this list along with the file.
    if [ ! -f "$file" ]; then
        echo "$file: listed in required_markers but missing"
        failures=1
    elif ! grep -q '^// hot-path: deny-clone$' "$file"; then
        echo "$file: missing required '// hot-path: deny-clone' marker"
        failures=1
    fi
done

if [ "$failures" -ne 0 ]; then
    echo >&2
    echo "error: a deny-clone hot path failed the check (see above)." >&2
    echo "Remove an unannotated copy or justify it: // allow-clone: <reason>" >&2
    echo "Restore a lost marker, or update required_markers after a rename." >&2
    exit 1
fi

echo "hot-path clone check: clean"
