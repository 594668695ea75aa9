//! E11 — the conclusion's headline table, paper vs measured, for both the
//! March-style and September-style samples.
//!
//! With `PERMADEAD_WORLD_CACHE=DIR` the world comes from the snapshot cache
//! (generated and saved on the first run, decoded on every later one); the
//! tables are bit-identical either way.

use permadead_bench::WorldRepro;

fn main() {
    let repro = WorldRepro::from_env();
    for study in [repro.march_study(), repro.september_study()] {
        println!("{}", study.report().render_comparison());
        println!();
    }
}
