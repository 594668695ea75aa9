//! `permadead` — facade crate re-exporting the whole workspace.
//!
//! A reproduction of *Characterizing "Permanently Dead" Links on Wikipedia*
//! (IMC 2022). See the README for the architecture and DESIGN.md for the
//! paper-to-module map.

pub use permadead_archive as archive;
pub use permadead_bot as bot;
pub use permadead_core as analysis;
pub use permadead_net as net;
pub use permadead_policy as policy;
pub use permadead_rescue as rescue;
pub use permadead_sched as sched;
pub use permadead_serve as serve;
pub use permadead_sim as sim;
pub use permadead_stats as stats;
pub use permadead_text as text;
pub use permadead_url as url;
pub use permadead_web as web;
pub use permadead_wiki as wiki;
