//! Past the parser, ingesting an upload costs a constant number of heap
//! allocations, whatever the design's size.
//!
//! The parser owns one `String` per net and instance name and one `Vec`
//! per pin list: that is the upload. Everything after it — validation,
//! the canonical order, the GCN graph, the OOD score, the report — works
//! on index arrays sized once per design, so it may allocate only a
//! fixed number of buffers on top of the parse. Rebuilding the netlist
//! under canonical names would add a name, a pin list and a sink list
//! per cell, which this file catches with a counting global allocator.
//! Counts are kept per thread, so whatever the test harness allocates
//! on its own threads cannot leak into the reading.

use eda_cloud_ingest::blif::parse_blif;
use eda_cloud_ingest::verilog::parse_verilog;
use eda_cloud_ingest::{FrontDoor, FrontDoorConfig};
use eda_cloud_netlist::formats::{write_blif, write_verilog};
use eda_cloud_serve::UploadDoc;
use eda_cloud_tech::Library;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

#[allow(dead_code)] // `mutate` serves the property tests, not this one.
#[path = "../../../tests/common/upload_gen.rs"]
mod upload_gen;

thread_local! {
    /// Allocations made by this thread. Const-initialized and `Copy`:
    /// touching it from inside the allocator neither allocates nor
    /// registers a destructor.
    static SEEN: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note() {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = SEEN.try_with(|seen| seen.set(seen.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only a
// const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = SEEN.with(Cell::get);
    let out = f();
    (out, SEEN.with(Cell::get) - before)
}

/// What `ingest_doc` may allocate beyond its own parse: 42 to 44 buffers
/// on these soups (validation, order, graph, sample, score, report), plus
/// headroom. Rebuilding the netlist would add about five per cell.
const PAST_THE_PARSE: u64 = 56;

#[test]
fn ingesting_allocates_its_parse_plus_a_constant() {
    let lib = Library::synthetic_14nm();
    let door = FrontDoor::with_pool_profile(FrontDoorConfig::default());
    let mut extras = Vec::new();
    for seed in 0..64 {
        let nl = upload_gen::gate_soup(seed);
        for format in ["blif", "verilog"] {
            let text =
                if format == "blif" { write_blif(&nl, &lib) } else { write_verilog(&nl, &lib) };
            let doc = UploadDoc::new("soup", format, text);
            let (parsed, parse) = allocations_in(|| match format {
                "blif" => parse_blif(&doc.text, &lib).map(|_| ()),
                _ => parse_verilog(&doc.text, &lib).map(|_| ()),
            });
            parsed.expect("soup parses");
            let (ingested, ingest) = allocations_in(|| door.ingest_doc(&doc));
            ingested.expect("soup ingests");
            let extra = ingest.saturating_sub(parse);
            assert!(
                extra <= PAST_THE_PARSE,
                "seed {seed} ({format}, {} cells): ingest made {ingest} allocations, its parse \
                 {parse}",
                nl.cell_count()
            );
            extras.push((nl.cell_count(), extra));
        }
    }
    // The soups span 1 to 20 cells, so a per-cell cost would show as a
    // slope even under the ceiling; what does grow is the map of distinct
    // masters the canonical order ranks.
    extras.sort_unstable();
    let (small, large) = (extras[0], extras[extras.len() - 1]);
    assert!(large.0 >= 4 * small.0, "sizes must differ: {small:?} {large:?}");
    assert!(large.1 <= small.1 + 4, "extra allocations grow with size: {small:?} {large:?}");
}
