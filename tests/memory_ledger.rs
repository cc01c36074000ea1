//! The memory ledger of a RANS hierarchy (`RansLevel::resident_bytes`,
//! `RansSolver::resident_bytes`) accounts for every byte the solver holds:
//! a per-thread byte-counting allocator checks the ledger against the
//! solver's net live bytes after construction and after warm cycles. The
//! same ledger shows the hierarchy holding one sweep scratch, serially and
//! on every rank's column of a `ParallelMg`, and a warm W-cycle still
//! allocating nothing.

use columbia_mesh::{wing_mesh, UnstructuredMesh, WingMeshSpec};
use columbia_mg::CycleParams;
use columbia_rans::level::SolverParams;
use columbia_rans::{ParallelMg, RansLevel, RansSolver};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Byte-counting allocator wrapping [`System`]: per-thread net live bytes
/// and allocation calls, so other tests running on sibling threads do
/// not show.
struct CountingAlloc;

thread_local! {
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: i64, calls: u64) {
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + calls));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64, 1);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64, 1);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64, 1);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64), 0);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn live_bytes() -> i64 {
    LIVE_BYTES.with(|c| c.get())
}

fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(|c| c.get())
}

/// The ledger rows of the sweep scratch.
const SCRATCH_ROWS: [&str; 4] = ["grad", "prim", "diag", "lamsum"];

fn wing(points: usize) -> UnstructuredMesh {
    wing_mesh(&WingMeshSpec {
        jitter: 0.0,
        ..WingMeshSpec::with_target_points(points)
    })
}

fn params() -> SolverParams {
    SolverParams {
        mach: 0.5,
        ..Default::default()
    }
}

fn total(rows: &[(&str, usize)]) -> i64 {
    rows.iter().map(|&(_, b)| b as i64).sum()
}

fn scratch_bytes(lvl: &RansLevel) -> usize {
    let rows = lvl.resident_bytes();
    let scratch = rows.iter().filter(|(name, _)| SCRATCH_ROWS.contains(name));
    scratch.map(|&(_, b)| b).sum()
}

/// The levels whose ledger holds sweep-scratch bytes.
fn scratch_holders<'a>(levels: impl Iterator<Item = &'a RansLevel>) -> Vec<usize> {
    let holders = levels.enumerate().filter(|(_, lvl)| scratch_bytes(lvl) > 0);
    holders.map(|(l, _)| l).collect()
}

/// Mesh generation and `RansSolver::new` leave exactly the ledger's bytes
/// live, and so do three W-cycles after them (they size the sweep
/// scratch, the coarse levels' FAS fields and the line-solve rows); no
/// remainder is left to name. No level holds a sweep scratch until the
/// first sweep, and then one level, the finest, does; a fourth cycle does
/// not touch the allocator. The checks run on the counted thread and free
/// what they allocate before the next count.
#[test]
fn serial_ledger_equals_live_bytes_and_one_level_holds_the_scratch() {
    std::thread::spawn(|| {
        let start = live_bytes();
        let mut solver = RansSolver::new(wing(3000), params(), 3);
        assert_eq!(solver.nlevels(), 3);
        let live = live_bytes() - start;
        let built = total(&solver.resident_bytes());
        assert_eq!(live, built, "after construction: live vs ledger bytes");
        assert_eq!(scratch_holders(solver.levels.iter()), [], "built");
        let cp = CycleParams::default();
        for _ in 0..3 {
            solver.cycle(&cp);
        }
        let live = live_bytes() - start;
        let warm = total(&solver.resident_bytes());
        assert_eq!(live, warm, "after three cycles: live vs ledger bytes");
        assert!(warm > built, "the cycles size the coarse FAS fields");
        assert_eq!(scratch_holders(solver.levels.iter()), [0], "warm");
        let before = alloc_calls();
        solver.cycle(&cp);
        let calls = alloc_calls() - before;
        assert_eq!(calls, 0, "a warm W-cycle hit the allocator {calls} times");
    })
    .join()
    .unwrap();
}

/// The scratch the first residual sizes is the size the hierarchy's
/// largest level needs: the finest level's, in the bytes of each array.
#[test]
fn the_one_scratch_is_sized_for_the_finest_level() {
    let mut solver = RansSolver::new(wing(3000), params(), 3);
    solver.levels[0].residual_rms();
    let n = solver.levels[0].nvertices();
    let rows = solver.resident_bytes();
    let row = |name| rows.iter().find(|(r, _)| *r == name).unwrap().1;
    let per_vertex = SCRATCH_ROWS.map(|name| row(name) as f64 / n as f64);
    assert_eq!(per_vertex, [48.0, 64.0, 288.0, 8.0]);
    assert!(rows.iter().all(|(name, _)| *name != "restrict_acc"));
}

/// `ParallelMg::new` gives every rank one sweep scratch, on the rank's
/// finest level, sized for the largest level of its column.
#[test]
fn each_parallel_mg_rank_column_holds_one_scratch() {
    let nparts = 4;
    let pmg = ParallelMg::new(&wing(3000), params(), nparts, 3);
    assert_eq!(pmg.nlevels(), 3);
    for r in 0..nparts {
        let column = pmg.locals.iter().map(|ls| &ls[r].level);
        assert_eq!(scratch_holders(column), vec![0], "rank {r}");
        let largest = pmg.locals.iter().map(|ls| ls[r].level.nvertices()).max();
        let lamsum = pmg.locals[0][r].level.resident_bytes();
        let lamsum = lamsum.iter().find(|(name, _)| *name == "lamsum").unwrap().1;
        assert_eq!(lamsum, 8 * largest.unwrap(), "rank {r}");
    }
}
