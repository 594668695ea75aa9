//! k-shingling and Jaccard similarity (Broder et al., *Syntactic clustering
//! of the web*, 1997) — the document-similarity measure the paper's soft-404
//! detector uses (§3): `u` is declared broken when the similarity between the
//! responses for `u` and a random sibling `u'` exceeds 99%.

use crate::gen::fnv1a;
use std::collections::HashSet;

/// `TOKEN_BYTE[b]` is `b` lowercased when `b` is ASCII alphanumeric, else 0
/// (a separator). Bytes of multi-byte UTF-8 characters are all ≥ 0x80, so
/// they separate exactly as the non-ASCII `char`s they encode would.
const TOKEN_BYTE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        if c.is_ascii_alphanumeric() {
            table[b] = c.to_ascii_lowercase();
        }
        b += 1;
    }
    table
};

/// Call `f` with the hash of every word-level `k`-shingle of `text`, in
/// text order, duplicates included.
///
/// Tokenization: lowercase alphanumeric runs; punctuation separates tokens.
/// A document with fewer than `k` tokens yields its whole token sequence as
/// a single shingle, so short error pages still compare sensibly; a document
/// with no tokens yields nothing. A window's hash is FNV-1a over its tokens'
/// lowercased bytes, each token followed by a `0x1f` separator.
///
/// One pass over the bytes copies each token, lowercased and closed by its
/// separator, into one buffer, so every window is a contiguous slice of it:
/// no per-token `String`, and a branch-free hash loop per window.
///
/// # Panics
///
/// If `k` is 0.
#[inline(always)]
pub fn for_each_shingle(text: &str, k: usize, mut f: impl FnMut(u64)) {
    assert!(k > 0, "shingle width must be positive");
    let mut norm: Vec<u8> = Vec::with_capacity(text.len() + 1);
    // token i, with its separator, is norm[bounds[i]..bounds[i + 1]]
    let mut bounds: Vec<usize> = vec![0];
    // a trailing separator closes a token that runs to the end of the text
    for &b in text.as_bytes().iter().chain([&0]) {
        let t = TOKEN_BYTE[b as usize];
        if t != 0 {
            norm.push(t);
        } else if norm.len() > bounds[bounds.len() - 1] {
            norm.push(0x1f); // token separator
            bounds.push(norm.len());
            if bounds.len() > k {
                f(fnv1a(&norm[bounds[bounds.len() - 1 - k]..]));
            }
        }
    }
    let tokens = bounds.len() - 1;
    if tokens > 0 && tokens < k {
        f(fnv1a(&norm));
    }
}

/// The set of word-level k-shingles of `text` (see [`for_each_shingle`]).
pub fn shingles(text: &str, k: usize) -> HashSet<u64> {
    let mut out = HashSet::new();
    for_each_shingle(text, k, |h| {
        out.insert(h);
    });
    out
}

/// Jaccard similarity of two shingle sets: `|A ∩ B| / |A ∪ B|`, in `[0, 1]`.
/// Two empty sets are defined as identical (similarity 1).
pub fn jaccard(a: &HashSet<u64>, b: &HashSet<u64>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Convenience: shingle both texts with window `k` and return the Jaccard
/// similarity.
pub fn shingle_similarity(a: &str, b: &str, k: usize) -> f64 {
    jaccard(&shingles(a, k), &shingles(b, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_texts_similarity_one() {
        let t = "the quick brown fox jumps over the lazy dog";
        assert_eq!(shingle_similarity(t, t, 3), 1.0);
    }

    #[test]
    fn disjoint_texts_similarity_zero() {
        assert_eq!(
            shingle_similarity("alpha beta gamma delta", "one two three four", 2),
            0.0
        );
    }

    #[test]
    fn empty_texts() {
        assert_eq!(shingle_similarity("", "", 3), 1.0);
        assert_eq!(shingle_similarity("", "some words here", 3), 0.0);
    }

    #[test]
    fn short_text_single_shingle() {
        // fewer than k tokens → whole text is one shingle
        assert_eq!(shingles("one two", 5).len(), 1);
        assert_eq!(shingle_similarity("one two", "one two", 5), 1.0);
        assert_eq!(shingle_similarity("one two", "one three", 5), 0.0);
    }

    #[test]
    fn tokenization_case_and_punct_insensitive() {
        assert_eq!(
            shingle_similarity("Hello, World! Again", "hello world again", 2),
            1.0
        );
    }

    #[test]
    fn small_change_high_similarity() {
        let a: String = (0..200).map(|i| format!("word{i} ")).collect();
        let mut b = a.clone();
        b.push_str("extra tail token");
        let sim = shingle_similarity(&a, &b, 5);
        assert!(sim > 0.95 && sim < 1.0, "sim={sim}");
    }

    #[test]
    fn shingle_count_matches_window_count() {
        // distinct tokens → every window unique
        let text: String = (0..50).map(|i| format!("tok{i} ")).collect();
        assert_eq!(shingles(&text, 4).len(), 50 - 4 + 1);
    }

    #[test]
    fn windows_stream_with_duplicates() {
        let mut seen = Vec::new();
        for_each_shingle("a b a b a", 2, |h| seen.push(h));
        assert_eq!(seen.len(), 4, "every window, repeats included");
        assert_eq!(seen[0], seen[2]);
        assert_eq!(seen[1], seen[3]);
        assert_eq!(shingles("a b a b a", 2).len(), 2);
    }

    #[test]
    fn no_tokens_no_shingles() {
        for text in ["", "  \t", "--!!--", "é漢😀"] {
            let mut n = 0;
            for_each_shingle(text, 3, |_| n += 1);
            assert_eq!(n, 0, "{text:?}");
        }
    }

    #[test]
    fn non_ascii_bytes_separate_tokens() {
        assert_eq!(shingle_similarity("caf\u{e9}bar", "caf bar", 1), 1.0);
        assert_eq!(shingles("x\u{1F600}y", 2).len(), 1);
    }

    #[test]
    #[should_panic(expected = "shingle width must be positive")]
    fn zero_width_panics() {
        for_each_shingle("a b", 0, |_| {});
    }

    proptest! {
        #[test]
        fn similarity_in_unit_range(a in "[a-f ]{0,60}", b in "[a-f ]{0,60}", k in 1usize..6) {
            let s = shingle_similarity(&a, &b, k);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn similarity_symmetric(a in "[a-f ]{0,60}", b in "[a-f ]{0,60}", k in 1usize..6) {
            prop_assert_eq!(
                shingle_similarity(&a, &b, k).to_bits(),
                shingle_similarity(&b, &a, k).to_bits()
            );
        }

        #[test]
        fn self_similarity_is_one(a in "[a-z ]{1,80}", k in 1usize..6) {
            prop_assert_eq!(shingle_similarity(&a, &a, k), 1.0);
        }
    }
}
