//! Lexical-signature rediscovery of moved pages.
//!
//! The paper's §4 rescues a dead link only through archived copies. Klein &
//! Nelson go further: a page that 404s at its old URL often still exists
//! somewhere — its *title* and *lexical signature* are durable enough to
//! find it again through a search engine. This crate is that search engine
//! for the simulated web: a [`RescueIndex`] over every page that is live at
//! index time, keyed two ways —
//!
//! - **title tokens**, because titles survive moves (the content generator
//!   keys them off the page's stable content identity, exactly as a real
//!   CMS carries `<title>` across a restructuring);
//! - **MinHash sketch minima** of the served body, the same
//!   `textsim::sketch` signatures the archive stores, so a dead link's
//!   last archived copy can be matched against today's live web without
//!   storing any bodies.
//!
//! [`RescueIndex::query`] retrieves top-k candidates through the postings
//! and ranks them by *exact* title-token Jaccard + sketch similarity; the
//! caller (core's rediscovery stage) then fetches each candidate live and
//! only declares a rescue when the served page still matches the
//! fingerprint above [`TITLE_THRESHOLD`] / [`SKETCH_THRESHOLD`].
//!
//! ## Determinism
//!
//! The index is a pure function of `(web, t)`: sites are walked in `SiteId`
//! order and cut into contiguous chunks, `16 × jobs` of them, which workers
//! claim from a shared cursor (site sizes are Zipf, so equal shards would
//! leave one worker with most of the pages). Chunks are concatenated in
//! chunk order, so the entry list — and therefore every posting and every
//! query answer — is bit-identical for any `--jobs`. Postings are rebuilt
//! from the entry list on snapshot load ([`RescueIndex::from_entries`]),
//! which is why only entries are serialized by `worldstore`.
//!
//! ## Postings
//!
//! Nearly every sketch minimum is unique to one page, so a map of
//! one-element lists would spend an allocation per minimum. Each posting
//! kind is instead one flat layout built by sorting and deduplicating the
//! `(key, entry id)` pairs: ascending distinct keys, the start of each key's
//! run, and the ids, ascending within each run. A lookup binary-searches
//! the keys.

use permadead_net::{SimTime, StatusCode};
use permadead_text::gen::fnv1a;
use permadead_text::html::extract_title;
use permadead_text::MinHashSketch;
use permadead_web::page::PathView;
use permadead_web::{LiveWeb, Site};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Word-level shingle size for page-body sketches — must match
/// `Snapshot::from_observation` (k = 5) so archived fingerprints and index
/// signatures live in the same similarity space.
pub const SHINGLE_K: usize = 5;

/// Minimum title-token Jaccard for a validated rediscovery. Titles are
/// stable across moves, so true matches sit at ≈1.0 and unrelated pages
/// (titles drawn from disjoint word banks) near 0.0.
pub const TITLE_THRESHOLD: f64 = 0.5;

/// Minimum body-sketch similarity for a validated rediscovery.
pub const SKETCH_THRESHOLD: f64 = 0.6;

/// Chunks per worker in [`RescueIndex::build`]: enough that the Zipf head's
/// big sites do not leave the other workers idle.
const CHUNKS_PER_JOB: usize = 16;

/// Default number of candidates a query returns.
pub const DEFAULT_TOP_K: usize = 5;

/// One live page in the index: where it is now, and what it looks like.
#[derive(Debug, Clone, PartialEq)]
pub struct RescueEntry {
    /// The page's *current* URL at index time.
    pub url: String,
    /// `<title>` of the served body (empty when the page has none).
    pub title: String,
    /// MinHash sketch of the served body.
    pub sketch: MinHashSketch,
}

/// What we still know about a dead link: the title and sketch of its last
/// archived content copy.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub title: String,
    pub sketch: MinHashSketch,
}

/// A ranked query answer, pointing into [`RescueIndex::entries`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Index into [`RescueIndex::entries`].
    pub entry: usize,
    /// Exact token-Jaccard between the fingerprint title and the entry's.
    pub title_similarity: f64,
    /// Sketch similarity between the fingerprint and the entry's body.
    pub content_similarity: f64,
}

impl Candidate {
    /// The retrieval score candidates are ranked by.
    pub fn score(&self) -> f64 {
        (self.title_similarity + self.content_similarity) / 2.0
    }
}

/// The searchable title + shingle-sketch index over the live web.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RescueIndex {
    entries: Vec<RescueEntry>,
    /// fnv1a(title token) → entry ids (ascending).
    title_postings: Postings,
    /// sketch permutation minimum → entry ids (ascending).
    sketch_postings: Postings,
}

/// An inverted list in one flat sorted layout: `keys` ascending and
/// distinct, and key `keys[i]`'s entry ids, ascending, are
/// `ids[starts[i]..starts[i + 1]]` (the last run ends at `ids.len()`).
#[derive(Debug, Clone, PartialEq, Default)]
struct Postings {
    keys: Vec<u64>,
    starts: Vec<u32>,
    ids: Vec<u32>,
}

impl Postings {
    /// Postings from `(key, entry id)` pairs in any order, duplicates
    /// allowed.
    fn from_pairs(mut pairs: Vec<(u64, u32)>) -> Postings {
        pairs.sort_unstable();
        pairs.dedup();
        let mut keys = Vec::new();
        let mut starts = Vec::new();
        for (i, &(key, _)) in pairs.iter().enumerate() {
            if keys.last() != Some(&key) {
                keys.push(key);
                starts.push(u32::try_from(i).expect("fewer than 2^32 postings"));
            }
        }
        let ids = pairs.into_iter().map(|(_, id)| id).collect();
        Postings { keys, starts, ids }
    }

    /// The ids posted under `key`, ascending; empty when it has none.
    fn get(&self, key: u64) -> &[u32] {
        let Ok(i) = self.keys.binary_search(&key) else {
            return &[];
        };
        let end = self
            .starts
            .get(i + 1)
            .map_or(self.ids.len(), |&s| s as usize);
        &self.ids[self.starts[i] as usize..end]
    }
}

impl RescueIndex {
    /// Build the index over every page live at `t`, sharded across `jobs`
    /// workers. Bit-identical for any `jobs` value.
    pub fn build(web: &LiveWeb, t: SimTime, jobs: usize) -> RescueIndex {
        let mut sites: Vec<&Site> = web.sites().collect();
        sites.sort_by_key(|s| s.id);
        if sites.is_empty() {
            return RescueIndex::default();
        }

        let jobs = jobs.clamp(1, sites.len());
        let entries = if jobs == 1 {
            sites.iter().flat_map(|s| index_site(web, s, t)).collect()
        } else {
            // Site sizes are Zipf, so equal-count shards leave one worker
            // with most of the pages: hand out many small chunks instead.
            let chunk = sites.len().div_ceil(jobs * CHUNKS_PER_JOB);
            let shards: Vec<&[&Site]> = sites.chunks(chunk).collect();
            // Relaxed: the cursor only hands out chunk indices; entries come
            // back through `join`
            let cursor = AtomicUsize::new(0);
            let mut indexed: Vec<(usize, Vec<RescueEntry>)> = crossbeam::scope(|scope| {
                let workers: Vec<_> = (0..jobs)
                    .map(|_| {
                        scope.spawn(|_| {
                            let mut done = Vec::new();
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some(shard) = shards.get(i) else {
                                    return done;
                                };
                                let entries =
                                    shard.iter().flat_map(|s| index_site(web, s, t)).collect();
                                done.push((i, entries));
                            }
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("index worker panicked"))
                    .collect()
            })
            .expect("index scope panicked");
            // concatenating in chunk order restores SiteId order
            indexed.sort_unstable_by_key(|&(i, _)| i);
            indexed
                .into_iter()
                .flat_map(|(_, entries)| entries)
                .collect()
        };
        RescueIndex::from_entries(entries)
    }

    /// Rebuild the index from a serialized entry list (the `worldstore`
    /// snapshot path). Postings are a pure function of the entries, so this
    /// reproduces [`RescueIndex::build`] exactly.
    pub fn from_entries(entries: Vec<RescueEntry>) -> RescueIndex {
        let mut title_pairs = Vec::new();
        let mut sketch_pairs = Vec::new();
        for (id, entry) in entries.iter().enumerate() {
            let id = id as u32;
            title_pairs.extend(title_tokens(&entry.title).into_iter().map(|tok| (tok, id)));
            if !entry.sketch.empty {
                sketch_pairs.extend(entry.sketch.mins().iter().map(|&m| (m, id)));
            }
        }
        RescueIndex {
            entries,
            title_postings: Postings::from_pairs(title_pairs),
            sketch_postings: Postings::from_pairs(sketch_pairs),
        }
    }

    pub fn entries(&self) -> &[RescueEntry] {
        &self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Top-`k` candidates for a fingerprint, best first. Retrieval goes
    /// through the postings (any shared title token or sketch minimum);
    /// ranking is exact, ties broken by ascending entry id — fully
    /// deterministic.
    pub fn query(&self, fp: &Fingerprint, k: usize) -> Vec<Candidate> {
        let mut ids: BTreeSet<u32> = BTreeSet::new();
        for tok in title_tokens(&fp.title) {
            ids.extend(self.title_postings.get(tok));
        }
        if !fp.sketch.empty {
            for &m in fp.sketch.mins() {
                ids.extend(self.sketch_postings.get(m));
            }
        }

        let mut candidates: Vec<Candidate> = ids
            .into_iter()
            .map(|id| {
                let entry = &self.entries[id as usize];
                Candidate {
                    entry: id as usize,
                    title_similarity: title_similarity(&fp.title, &entry.title),
                    content_similarity: fp.sketch.similarity(&entry.sketch),
                }
            })
            .collect();
        candidates.sort_by(|a, b| {
            b.score().total_cmp(&a.score()).then_with(|| a.entry.cmp(&b.entry))
        });
        candidates.truncate(k);
        candidates
    }
}

/// Exact token-Jaccard similarity between two titles (lowercase
/// alphanumeric tokens). Two empty titles count as identical; empty vs
/// non-empty as disjoint.
pub fn title_similarity(a: &str, b: &str) -> f64 {
    let ta: BTreeSet<u64> = title_tokens(a).into_iter().collect();
    let tb: BTreeSet<u64> = title_tokens(b).into_iter().collect();
    jaccard(&ta, &tb)
}

/// Hashes of the lowercase alphanumeric tokens of a title.
fn title_tokens(title: &str) -> Vec<u64> {
    title
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| fnv1a(t.to_ascii_lowercase().as_bytes()))
        .collect()
}

fn jaccard(a: &BTreeSet<u64>, b: &BTreeSet<u64>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Every page of `site` that a visitor (and hence a search crawler) can
/// reach at `t`: DNS must resolve the host to *this* site (lapsed domains
/// and parker re-registrations drop out), the site must be founded and not
/// parked, the page's current path must serve a real 200.
fn index_site(web: &LiveWeb, site: &Site, t: SimTime) -> Vec<RescueEntry> {
    match web.site_by_host(&site.host, t) {
        Some(resolved) if resolved.id == site.id => {}
        _ => return Vec::new(),
    }
    if t < site.lifecycle.founded || site.lifecycle.is_parked(t) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for page in site.pages() {
        let path = page.current_path(t);
        if page.view_at(path, t) != Some(PathView::Live) {
            continue;
        }
        let resp = site.serve(path, t, web.content());
        if resp.status != StatusCode::OK {
            continue;
        }
        out.push(RescueEntry {
            url: format!("http://{}{}", site.host, path),
            title: extract_title(&resp.body).unwrap_or_default(),
            sketch: MinHashSketch::of(&resp.body, SHINGLE_K),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use permadead_web::{Page, PageEvent, PageId, SiteId, SiteLifecycle, UnknownPathPolicy};
    use proptest::prelude::*;

    fn t(y: i32) -> SimTime {
        SimTime::from_ymd(y, 6, 15)
    }

    /// Three sites: one healthy with a moved page, one parked, one founded
    /// in the future.
    fn web() -> LiveWeb {
        let mut web = LiveWeb::new(777);

        let mut alive = Site::new(
            SiteId(1),
            "alive.example.org",
            SiteLifecycle::active_from(t(2004)),
            UnknownPathPolicy::NotFound,
        );
        let mut moved = Page::new(PageId(1), t(2008), "/artists/steve");
        moved.push_event(t(2016), PageEvent::Moved { to_path: "/portfolio/steve".into() });
        alive.add_page(moved);
        alive.add_page(Page::new(PageId(2), t(2009), "/about.html"));
        let mut deleted = Page::new(PageId(3), t(2009), "/temp.html");
        deleted.push_event(t(2012), PageEvent::Deleted);
        alive.add_page(deleted);
        web.add_site(alive);

        let mut parked = Site::new(
            SiteId(2),
            "parked.example.net",
            SiteLifecycle::active_from(t(2004)).parked_at(t(2015)),
            UnknownPathPolicy::NotFound,
        );
        parked.add_page(Page::new(PageId(1), t(2006), "/story.html"));
        web.add_site(parked);

        let mut future = Site::new(
            SiteId(3),
            "future.example.com",
            SiteLifecycle::active_from(t(2030)),
            UnknownPathPolicy::NotFound,
        );
        future.add_page(Page::new(PageId(1), t(2030), "/hello"));
        web.add_site(future);

        web
    }

    #[test]
    fn indexes_only_reachable_live_pages() {
        let idx = RescueIndex::build(&web(), t(2018), 1);
        let urls: Vec<&str> = idx.entries().iter().map(|e| e.url.as_str()).collect();
        assert_eq!(
            urls,
            [
                "http://alive.example.org/portfolio/steve",
                "http://alive.example.org/about.html",
            ],
            "moved page at its new path only; deleted, parked, unfounded pages absent"
        );
        for e in idx.entries() {
            assert!(!e.title.is_empty(), "served pages carry a <title>: {}", e.url);
            assert!(!e.sketch.empty);
        }
    }

    #[test]
    fn build_is_bit_identical_across_jobs() {
        let web = web();
        let base = RescueIndex::build(&web, t(2018), 1);
        for jobs in [2, 3, 8] {
            assert_eq!(RescueIndex::build(&web, t(2018), jobs), base, "jobs={jobs}");
        }
    }

    #[test]
    fn from_entries_reproduces_build() {
        let idx = RescueIndex::build(&web(), t(2018), 2);
        assert_eq!(RescueIndex::from_entries(idx.entries().to_vec()), idx);
    }

    #[test]
    fn query_finds_moved_page_from_old_body() {
        let web = web();
        // fingerprint = what the archive saw at the *old* URL before the move
        let site = web.site_by_host("alive.example.org", t(2012)).unwrap();
        let old = site.serve("/artists/steve", t(2012), web.content());
        assert_eq!(old.status, StatusCode::OK);
        let fp = Fingerprint {
            title: extract_title(&old.body).unwrap(),
            sketch: MinHashSketch::of(&old.body, SHINGLE_K),
        };

        let idx = RescueIndex::build(&web, t(2018), 1);
        let hits = idx.query(&fp, DEFAULT_TOP_K);
        assert!(!hits.is_empty());
        let best = &idx.entries()[hits[0].entry];
        assert_eq!(best.url, "http://alive.example.org/portfolio/steve");
        assert!(hits[0].title_similarity >= TITLE_THRESHOLD);
        assert!(hits[0].content_similarity >= SKETCH_THRESHOLD);
    }

    #[test]
    fn query_is_deterministic_and_ranked() {
        let web = web();
        let idx = RescueIndex::build(&web, t(2018), 1);
        let site = web.site_by_host("alive.example.org", t(2018)).unwrap();
        let about = site.serve("/about.html", t(2018), web.content());
        let fp = Fingerprint {
            title: extract_title(&about.body).unwrap(),
            sketch: MinHashSketch::of(&about.body, SHINGLE_K),
        };
        let a = idx.query(&fp, 10);
        let b = idx.query(&fp, 10);
        assert_eq!(a, b);
        for pair in a.windows(2) {
            assert!(pair[0].score() >= pair[1].score(), "ranked best-first");
        }
        assert_eq!(idx.entries()[a[0].entry].url, "http://alive.example.org/about.html");
        assert_eq!(a[0].content_similarity, 1.0, "identical body ⇒ digest match");
    }

    #[test]
    fn unrelated_fingerprint_matches_nothing_confidently() {
        let idx = RescueIndex::build(&web(), t(2018), 1);
        let fp = Fingerprint {
            title: "zzz qqq xxx completely disjoint".into(),
            sketch: MinHashSketch::of(
                "words that never appear in any generated page body at all \
                 zebra quagga xylophone zebra quagga xylophone",
                SHINGLE_K,
            ),
        };
        for c in idx.query(&fp, 10) {
            assert!(c.title_similarity < TITLE_THRESHOLD);
            assert!(c.content_similarity < SKETCH_THRESHOLD);
        }
    }

    /// The original postings, kept verbatim as the differential oracle:
    /// one `BTreeMap` of `Vec`s per posting kind, and the query over them.
    mod reference {
        use super::super::{title_similarity, title_tokens, Candidate, Fingerprint, RescueEntry};
        use std::collections::{BTreeMap, BTreeSet};

        pub struct Reference {
            pub title_postings: BTreeMap<u64, Vec<u32>>,
            pub sketch_postings: BTreeMap<u64, Vec<u32>>,
        }

        pub fn from_entries(entries: &[RescueEntry]) -> Reference {
            let mut title_postings: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            let mut sketch_postings: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            for (id, entry) in entries.iter().enumerate() {
                let id = id as u32;
                for tok in title_tokens(&entry.title) {
                    let posting = title_postings.entry(tok).or_default();
                    if posting.last() != Some(&id) {
                        posting.push(id);
                    }
                }
                if !entry.sketch.empty {
                    for &m in entry.sketch.mins() {
                        let posting = sketch_postings.entry(m).or_default();
                        if posting.last() != Some(&id) {
                            posting.push(id);
                        }
                    }
                }
            }
            Reference { title_postings, sketch_postings }
        }

        impl Reference {
            pub fn query(
                &self,
                entries: &[RescueEntry],
                fp: &Fingerprint,
                k: usize,
            ) -> Vec<Candidate> {
                let mut ids: BTreeSet<u32> = BTreeSet::new();
                for tok in title_tokens(&fp.title) {
                    if let Some(posting) = self.title_postings.get(&tok) {
                        ids.extend(posting.iter().copied());
                    }
                }
                if !fp.sketch.empty {
                    for &m in fp.sketch.mins() {
                        if let Some(posting) = self.sketch_postings.get(&m) {
                            ids.extend(posting.iter().copied());
                        }
                    }
                }

                let mut candidates: Vec<Candidate> = ids
                    .into_iter()
                    .map(|id| {
                        let entry = &entries[id as usize];
                        Candidate {
                            entry: id as usize,
                            title_similarity: title_similarity(&fp.title, &entry.title),
                            content_similarity: fp.sketch.similarity(&entry.sketch),
                        }
                    })
                    .collect();
                candidates.sort_by(|a, b| {
                    b.score().total_cmp(&a.score()).then_with(|| a.entry.cmp(&b.entry))
                });
                candidates.truncate(k);
                candidates
            }
        }
    }

    /// Titles over a six-word bank, so tokens repeat within a title and
    /// across entries, and empty titles come up often.
    const TITLE: &str = "((alpha|Beta|gamma|delta|ALPHA|x1)[ ,.-]{1,2}){0,5}";

    /// Sketches whose minima come from a pool of eight values, so minima
    /// repeat within a sketch and are shared across entries; empty about a
    /// quarter of the time.
    fn sketch() -> impl Strategy<Value = MinHashSketch> {
        (
            proptest::collection::vec(0u64..8, permadead_text::sketch::SKETCH_SIZE),
            any::<u64>(),
            0u8..4,
        )
            .prop_map(|(mins, digest, empty)| {
                let mins = mins.try_into().expect("SKETCH_SIZE minima");
                MinHashSketch::from_parts(mins, digest, empty == 0)
            })
    }

    fn entry() -> impl Strategy<Value = RescueEntry> {
        (TITLE, sketch()).prop_map(|(title, sketch)| RescueEntry {
            url: String::new(),
            title,
            sketch,
        })
    }

    fn fingerprint() -> impl Strategy<Value = Fingerprint> {
        (TITLE, sketch()).prop_map(|(title, sketch)| Fingerprint { title, sketch })
    }

    fn posted(postings: &Postings) -> Vec<(u64, Vec<u32>)> {
        postings
            .keys
            .iter()
            .map(|&key| (key, postings.get(key).to_vec()))
            .collect()
    }

    proptest! {
        #[test]
        fn flat_postings_match_the_btreemap_oracle(
            entries in proptest::collection::vec(entry(), 0..24),
            fps in proptest::collection::vec(fingerprint(), 1..6),
            k in 1usize..8,
        ) {
            let oracle = reference::from_entries(&entries);
            let idx = RescueIndex::from_entries(entries.clone());
            let want = |map: &std::collections::BTreeMap<u64, Vec<u32>>| {
                map.iter().map(|(&key, ids)| (key, ids.clone())).collect::<Vec<_>>()
            };
            prop_assert_eq!(posted(&idx.title_postings), want(&oracle.title_postings));
            prop_assert_eq!(posted(&idx.sketch_postings), want(&oracle.sketch_postings));
            for fp in &fps {
                prop_assert_eq!(idx.query(fp, k), oracle.query(&entries, fp, k));
            }
        }
    }

    #[test]
    fn absent_keys_post_nothing() {
        let postings = Postings::from_pairs(vec![(5, 2), (3, 1), (5, 0), (5, 2)]);
        assert_eq!(postings.get(3), [1]);
        assert_eq!(postings.get(5), [0, 2]);
        assert!(postings.get(4).is_empty() && postings.get(9).is_empty());
        assert_eq!(Postings::from_pairs(Vec::new()), Postings::default());
    }

    #[test]
    fn empty_web_builds_empty_index() {
        let web = LiveWeb::new(1);
        let idx = RescueIndex::build(&web, t(2018), 4);
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert!(idx.query(
            &Fingerprint { title: "anything".into(), sketch: MinHashSketch::of("x", SHINGLE_K) },
            3
        )
        .is_empty());
    }
}
