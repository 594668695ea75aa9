//! Deterministic text and page-content machinery.
//!
//! The paper's soft-404 detection (§3) compares the *content* of HTTP
//! responses: it fetches the suspect URL `u` and a random-suffix sibling `u'`,
//! then declares `u` broken when the k-shingling similarity of the two bodies
//! exceeds 99%. To exercise that code path offline we need pages with real,
//! distinguishable text — so this crate provides:
//!
//! - [`gen`]: a seeded generator producing stable, page-specific prose. The
//!   same (seed, URL) always yields the same body; different URLs yield
//!   bodies that are textually far apart.
//! - [`shingle`]: k-shingling and Jaccard similarity (Broder et al. 1997),
//!   the similarity measure the paper adapts from prior work.
//! - [`soft404`]: the textual signatures of error-ish 200 responses — parked
//!   domains, "page not found" templates, login walls — that the live-web
//!   simulator serves and the pipeline must see through.
//! - [`html`]: minimal HTML synthesis and text extraction, enough to make
//!   responses look like documents and to strip them back to prose.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod gen;
pub mod html;
pub mod shingle;
pub mod sketch;
pub mod soft404;

pub use gen::ContentGen;
pub use html::{extract_text, render_page};
pub use shingle::{jaccard, shingle_similarity, shingles};
pub use sketch::MinHashSketch;
pub use soft404::{login_page_body, parked_domain_body, soft404_body, SOFT404_SIMILARITY_THRESHOLD};
