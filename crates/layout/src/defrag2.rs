//! `defrag2`: bounded-depth branch-and-bound over relocation *sequences*
//! — the multi-move defragmentation planner.
//!
//! The PR-5 planner ([`crate::defrag`]) only considers *single-step*
//! relocation sets: every target must be free before the plan runs. Van
//! der Veen et al. ("Defragmenting the Module Layout of a Partially
//! Reconfigurable Device") show the real admission wins come from
//! multi-move *schedules*, where a later move lands in cells an earlier
//! move vacated. This module searches those schedules with the same
//! machinery that made `parflow::autofloorplan` fast:
//!
//! * **incremental layout state** — `LayoutState` copies the
//!   [`FreeSpace`] row masks once per plan; applying or undoing a move
//!   clears the bits of one span, sets those of the other and XORs two
//!   hash keys, never a clone down the tree;
//! * **precomputed compatible starts** — each mover carries the mask of
//!   start columns whose span has its column kinds (the HTR relocation
//!   condition), so target enumeration ANDs it with each base row's free
//!   starts (`FreeSpace::free_starts`) instead of comparing column
//!   slices at every start in every node;
//! * **Zobrist-style transposition table** — each (allocation, position)
//!   pair hashes to a derived 64-bit key; the layout hash is their XOR,
//!   so permuted move orders reaching the same layout collide in the
//!   per-rectangle visited set and are pruned. Pruning is exact: a
//!   layout determines which movers have moved (a moved blocker never
//!   overlaps the admit rectangle again), hence the remaining depth, and
//!   feasibility is a function of the layout alone;
//! * **exact per-module lower bounds** — an HTR relocation is the same
//!   FAR-rewritten replay at every compatible target, so one move of one
//!   module costs `IcapModel::transfer_time` over its bytes *wherever*
//!   it lands. Every blocker of an admit rectangle must move exactly
//!   once, so a rectangle's whole-sequence cost is known *before* the
//!   search: the suffix lower bound is exact, and branch-and-bound
//!   collapses to ordering whole rectangles plus a feasibility-only
//!   descent inside each rectangle;
//! * **best-first rectangle order** — [`plan`] sorts the candidate admit
//!   rectangles by `(cost, moves)` (a stable sort, so enumeration order
//!   breaks ties) and runs the descent on each in that order, returning
//!   the first that succeeds. No later rectangle can beat it, so every
//!   rectangle after the winner is skipped. The search is serial and
//!   deterministic: the plan, `nodes` included, is a function of the
//!   layout and the config alone.
//!
//! **Documented tie-break**: minimise total move cost (ns), then move
//! count, then the admit-rectangle enumeration order (candidate starts
//! ascending, base row ascending), then the first feasible sequence in
//! canonical descent order (movers by ascending allocation id, targets
//! leftmost-then-bottom). [`reference`](mod@reference) freezes an exhaustive
//! clone-based enumeration of the same plan space as the equivalence
//! oracle.
//!
//! Moves are priced *preemption-aware* by default: a live module is
//! running, so relocating it pays context save + restore bytes
//! ([`prcost::context_breakdown`]) on top of the Eq. 18 write
//! ([`LayoutManager::move_cost`]).

use crate::defrag::RelocationMove;
use crate::free::{set_bits, FreeSpace};
use crate::manager::{Allocation, LayoutManager, MoveCost};
use fabric::{splitmix64, Window};
use prcost::{Metrics, PrrOrganization};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::time::Instant;

/// Hard cap on sequence depth (the paper-scale regime; deeper searches
/// lose to the admission they were meant to enable).
pub const MAX_DEPTH: u32 = 4;

/// Multi-move search configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Defrag2Config {
    /// Maximum moves per plan, clamped to [`MAX_DEPTH`]; 0 disables the
    /// search entirely.
    pub depth: u32,
    /// Price moves preemption-aware: live modules are running, so each
    /// move pays context save + restore bytes on top of the bitstream
    /// write. `false` prices write-only (idle modules).
    pub context_aware: bool,
    /// Node budget of each rectangle's feasibility descent: every
    /// candidate rectangle gets its own budget, and one whose descent
    /// exhausts it counts as infeasible, so a rectangle's verdict never
    /// depends on the rectangles tried before it. The default is far
    /// above anything the depth-capped tree reaches on real devices.
    pub node_budget: u64,
}

impl Default for Defrag2Config {
    fn default() -> Self {
        Defrag2Config {
            depth: 3,
            context_aware: true,
            node_budget: 100_000,
        }
    }
}

/// A validated, costed multi-move defragmentation plan. Unlike
/// [`crate::DefragPlan`], `moves` is an *ordered sequence*: each move's
/// target is free when its turn comes, possibly only because an earlier
/// move vacated it.
#[derive(Debug, Clone, PartialEq)]
pub struct Defrag2Plan {
    /// Relocations in execution order.
    pub moves: Vec<RelocationMove>,
    /// The window freed for the failed organization once moves complete.
    pub admit: Window,
    /// Total ICAP time of all moves, nanoseconds.
    pub total_move_ns: u64,
    /// Total bytes replayed by all moves (bitstream + context).
    pub total_move_bytes: u64,
    /// Context save + restore bytes included in `total_move_bytes`.
    pub total_context_bytes: u64,
    /// Search nodes expanded over every rectangle tried (diagnostic,
    /// deterministic).
    pub nodes: u64,
}

/// Zobrist-style key of one (allocation, position) pair: derived (not
/// tabulated) so no per-device key table is needed, deterministic across
/// runs and threads.
fn zkey(id: u64, start_col: usize, row: u32) -> u64 {
    splitmix64(
        splitmix64(splitmix64(id ^ 0xa076_1d64_78bd_642f) ^ start_col as u64) ^ u64::from(row),
    )
}

/// A rectangle in span form (no `columns` vector to clone).
#[derive(Debug, Clone, Copy)]
struct SpanRect {
    start: usize,
    end: usize,
    row: u32,
    top: u32,
}

impl SpanRect {
    fn overlaps(&self, start: usize, end: usize, row: u32, top: u32) -> bool {
        self.start < end && start < self.end && self.row <= top && row <= self.top
    }
}

/// One allocation that must vacate a candidate admit rectangle.
struct Mover<'a> {
    alloc: &'a Allocation,
    cost: MoveCost,
    /// Start columns whose span has the allocation's column kinds.
    starts: &'a [u64],
}

/// One candidate admit rectangle with its blockers and exact sequence
/// cost (each blocker moves exactly once at a position-independent
/// price).
struct RectCand<'a> {
    admit: SpanRect,
    movers: Vec<Mover<'a>>,
    cost: u64,
}

/// Incremental search state: a copy of the live [`FreeSpace`] (made once
/// per plan; every rectangle's descent undoes its moves, so the copy is
/// back to the live layout when the next rectangle starts), the XOR
/// layout hash over the movers' current positions and the rectangle's
/// transposition table, plus scratch for target enumeration.
struct LayoutState {
    free: FreeSpace,
    hash: u64,
    /// Hashes of the layouts the current rectangle's descent has entered.
    visited: HashSet<u64>,
    /// One free-start mask per base row ([`FreeSpace::free_starts`]).
    bands: Vec<u64>,
}

impl LayoutState {
    /// Move mover `m`'s window from `(start, row)` position `from` to
    /// `to`: the target cells are taken, the source cells freed and the
    /// hash swaps the two position keys. Moving back undoes it exactly.
    fn shift(&mut self, m: &Mover<'_>, from: (usize, u32), to: (usize, u32)) {
        let (w, h) = (m.alloc.window.columns.len(), m.alloc.window.height);
        self.free.allocate_rect(to.0, w, to.1, h);
        self.free.release_rect(from.0, w, from.1, h);
        self.hash ^= zkey(m.alloc.id, from.0, from.1) ^ zkey(m.alloc.id, to.0, to.1);
    }
}

/// Canonical target enumeration for one mover: compatible starts
/// ascending, base rows ascending, currently free, disjoint from the
/// admit rectangle. Shared (by specification) with the frozen oracle.
fn targets_into(
    state: &mut LayoutState,
    admit: &SpanRect,
    mover: &Mover<'_>,
    out: &mut Vec<(usize, u32)>,
) {
    out.clear();
    let words = mover.starts.len();
    let (bw, bh) = (mover.alloc.window.columns.len(), mover.alloc.window.height);
    let bases = (state.free.rows() + 1 - bh) as usize;
    state.bands.resize(bases * words, 0);
    for (i, band) in state.bands.chunks_exact_mut(words).enumerate() {
        state.free.free_starts(bw, i as u32 + 1, bh, band);
        for (b, &s) in band.iter_mut().zip(mover.starts) {
            *b &= s;
        }
    }
    for w in 0..words {
        let any = state
            .bands
            .chunks_exact(words)
            .fold(0, |acc, band| acc | band[w]);
        for bit in set_bits(&[any]) {
            let start = w * 64 + bit;
            for (i, band) in state.bands.chunks_exact(words).enumerate() {
                let row = i as u32 + 1;
                if band[w] >> bit & 1 == 1 && !admit.overlaps(start, start + bw, row, row + bh - 1)
                {
                    out.push((start, row));
                }
            }
        }
    }
}

/// A complete move sequence: `(mover index, target start col, target row)`
/// per move, in execution order.
type Seq = Vec<(usize, usize, u32)>;

/// Depth-first feasibility descent inside one rectangle: find the first
/// (in canonical order) sequence of single moves taking every mover out
/// of the admit rectangle. The visited set prunes permuted move orders
/// reaching the same layout; a pruned layout was fully explored and
/// failed, so skipping it never changes the first success.
fn descend(
    admit: &SpanRect,
    movers: &[Mover<'_>],
    state: &mut LayoutState,
    moved: u32,
    seq: &mut Seq,
    nodes: &mut u64,
    budget: u64,
) -> bool {
    if *nodes >= budget {
        return false;
    }
    *nodes += 1;
    if moved.count_ones() as usize == movers.len() {
        return true;
    }
    let mut targets = Vec::new();
    for (mi, mover) in movers.iter().enumerate() {
        if moved & (1 << mi) != 0 {
            continue;
        }
        let from = (mover.alloc.window.start_col, mover.alloc.window.row);
        targets_into(state, admit, mover, &mut targets);
        for &(to_start, to_row) in &targets {
            state.shift(mover, from, (to_start, to_row));
            seq.push((mi, to_start, to_row));
            if state.visited.insert(state.hash)
                && descend(admit, movers, state, moved | (1 << mi), seq, nodes, budget)
            {
                return true;
            }
            seq.pop();
            state.shift(mover, (to_start, to_row), from);
        }
    }
    false
}

/// Enumerate candidate admit rectangles (candidate starts ascending,
/// base rows ascending — the tie-break order) with their blockers and
/// exact sequence costs. Rectangles with more blockers than `depth` are
/// unreachable and dropped here. `starts[i]` is the compatible-start mask
/// of the `i`-th live allocation in id order.
fn rect_candidates<'a>(
    mgr: &'a LayoutManager,
    starts: &'a [Vec<u64>],
    org: &PrrOrganization,
    depth: usize,
    context_aware: bool,
) -> Vec<RectCand<'a>> {
    let free = mgr.free_space();
    let width = org.width() as usize;
    let mut rects = Vec::new();
    if width == 0 || org.height < 1 || org.height > free.rows() {
        return rects;
    }
    let allocs: Vec<&Allocation> = mgr.allocation_map().values().collect();
    let costs: Vec<MoveCost> = allocs
        .iter()
        .map(|a| mgr.move_cost(a, context_aware))
        .collect();
    for start in free.candidate_starts(org.clb_cols, org.dsp_cols, org.bram_cols) {
        let end = start + width;
        // Allocations sharing a column with the span, in id order.
        let in_span: Vec<usize> = (0..allocs.len())
            .filter(|&i| allocs[i].window.start_col < end && start < allocs[i].window.end_col())
            .collect();
        for row in 1..=free.rows() - org.height + 1 {
            let admit = SpanRect {
                start,
                end,
                row,
                top: row + org.height - 1,
            };
            let blockers = || {
                in_span.iter().copied().filter(|&i| {
                    let w = &allocs[i].window;
                    admit.overlaps(w.start_col, w.end_col(), w.row, w.top_row())
                })
            };
            if blockers().nth(depth).is_some() {
                continue;
            }
            let movers: Vec<Mover<'a>> = blockers()
                .map(|i| Mover {
                    alloc: allocs[i],
                    cost: costs[i],
                    starts: &starts[i],
                })
                .collect();
            let cost = movers.iter().map(|m| m.cost.transfer_ns).sum();
            rects.push(RectCand {
                admit,
                movers,
                cost,
            });
        }
    }
    rects
}

/// Run the feasibility descent for one rectangle under its own node
/// budget, adding the nodes it expands to `nodes`; returns the canonical
/// first sequence if one exists.
fn solve_rect(
    state: &mut LayoutState,
    rect: &RectCand<'_>,
    budget: u64,
    nodes: &mut u64,
) -> Option<Seq> {
    state.hash = rect.movers.iter().fold(0, |hash, m| {
        hash ^ zkey(m.alloc.id, m.alloc.window.start_col, m.alloc.window.row)
    });
    state.visited.clear();
    let mut seq = Vec::with_capacity(rect.movers.len());
    let mut rect_nodes = 0u64;
    let found = descend(
        &rect.admit,
        &rect.movers,
        state,
        0,
        &mut seq,
        &mut rect_nodes,
        budget,
    );
    *nodes += rect_nodes;
    found.then_some(seq)
}

/// Materialise the winning rectangle + sequence into a plan.
fn materialize(
    mgr: &LayoutManager,
    rect: &RectCand<'_>,
    seq: &[(usize, usize, u32)],
    nodes: u64,
) -> Defrag2Plan {
    let columns = mgr.device().columns();
    let moves: Vec<RelocationMove> = seq
        .iter()
        .map(|&(mi, to_start, to_row)| {
            let m = &rect.movers[mi];
            let from = m.alloc.window.clone();
            let to = Window {
                start_col: to_start,
                width: from.width,
                row: to_row,
                height: from.height,
                columns: from.columns.clone(),
            };
            debug_assert!(bitstream::compatible(&from, &to));
            RelocationMove {
                id: m.alloc.id,
                from,
                to,
                bytes: m.cost.bytes,
                context_bytes: m.cost.context_bytes,
                transfer_ns: m.cost.transfer_ns,
            }
        })
        .collect();
    let admit = Window {
        start_col: rect.admit.start,
        width: (rect.admit.end - rect.admit.start) as u32,
        row: rect.admit.row,
        height: rect.admit.top - rect.admit.row + 1,
        columns: columns[rect.admit.start..rect.admit.end].to_vec(),
    };
    Defrag2Plan {
        total_move_ns: moves.iter().map(|m| m.transfer_ns).sum(),
        total_move_bytes: moves.iter().map(|m| m.bytes).sum(),
        total_context_bytes: moves.iter().map(|m| m.context_bytes).sum(),
        moves,
        admit,
        nodes,
    }
}

/// Bounded-depth multi-move search, best-first: candidate rectangles in
/// `(cost, moves, enumeration index)` order, each descended under its own
/// `node_budget`; the first feasible rectangle is the plan. Rectangle
/// costs are exact before the descent, so no rectangle after it can win.
pub fn plan(
    mgr: &LayoutManager,
    org: &PrrOrganization,
    config: &Defrag2Config,
) -> Option<Defrag2Plan> {
    if config.depth == 0 {
        return None;
    }
    let depth = config.depth.min(MAX_DEPTH) as usize;
    let free = mgr.free_space();
    let starts: Vec<Vec<u64>> = mgr
        .allocations()
        .map(|a| free.compatible_starts(&a.window.columns))
        .collect();
    let mut rects = rect_candidates(mgr, &starts, org, depth, config.context_aware);
    rects.sort_by_key(|r| (r.cost, r.movers.len()));
    let mut state = LayoutState {
        free: free.clone(),
        hash: 0,
        visited: HashSet::new(),
        bands: Vec::new(),
    };
    let mut nodes = 0u64;
    let (rect, seq) = rects.iter().find_map(|rect| {
        solve_rect(&mut state, rect, config.node_budget, &mut nodes).map(|seq| (rect, seq))
    })?;
    Some(materialize(mgr, rect, &seq, nodes))
}

impl LayoutManager {
    /// Plan a bounded-depth multi-move relocation sequence freeing a
    /// window for `org`, or `None` when no sequence within
    /// `config.depth` moves exists. See the [module docs](self) for the
    /// search machinery and the documented tie-break.
    pub fn plan_defrag2(
        &self,
        org: &PrrOrganization,
        config: &Defrag2Config,
    ) -> Option<Defrag2Plan> {
        let started = Instant::now();
        let plan = plan(self, org, config);
        Metrics::global().record_stage("layout:defrag2_plan", started.elapsed());
        if plan.is_some() {
            Metrics::global().incr_labeled("layout:defrag2_plans");
        }
        plan
    }

    /// Execute a multi-move plan *in order*: each move's target is free
    /// at its turn (debug-asserted), possibly only because an earlier
    /// move vacated it. Bumps the `layout:*` relocation counters; ICAP
    /// time accounting is the caller's (the simulator serializes moves
    /// through the port).
    pub fn execute_defrag2(&mut self, plan: &Defrag2Plan) {
        for mv in &plan.moves {
            debug_assert!(bitstream::compatible(&mv.from, &mv.to));
            debug_assert!(
                self.free_space().is_free(
                    mv.to.start_col,
                    mv.to.width as usize,
                    mv.to.row,
                    mv.to.height
                ),
                "sequence move target not free at its turn"
            );
            self.move_allocation(mv.id, mv.to.clone());
        }
        let m = Metrics::global();
        m.incr_labeled("layout:defrag2_executed");
        m.add_labeled("layout:relocations", plan.moves.len() as u64);
        m.add_labeled("layout:relocated_bytes", plan.total_move_bytes);
        m.add_labeled("layout:context_bytes", plan.total_context_bytes);
    }
}

pub mod reference {
    //! Frozen exhaustive-enumeration oracle for the multi-move search —
    //! the *specification* of the plan space and tie-break, kept naive
    //! on purpose: occupancy-grid state ([`NaiveFreeSpace`]), full
    //! enumeration of every sequence (no transposition table, no lower
    //! bounds, no ordering of rectangles, no pruning across rectangles
    //! beyond strict improvement), per-sequence cost summation (it does
    //! not assume position-independent move costs — it verifies them).
    //! Do not optimize; the equivalence property suite pins
    //! [`super::plan`] against it at small depths.

    use super::{Defrag2Config, Defrag2Plan, MAX_DEPTH};
    use crate::defrag::{overlaps, RelocationMove};
    use crate::free::NaiveFreeSpace;
    use crate::manager::{Allocation, LayoutManager};
    use fabric::Window;
    use prcost::PrrOrganization;

    struct Best {
        cost: u64,
        moves: usize,
        admit: Window,
        seq: Vec<RelocationMove>,
    }

    /// Exhaustively enumerate every bounded-depth relocation sequence
    /// over every candidate admit rectangle and return the best plan
    /// under the documented tie-break (cost, then move count, then
    /// rectangle enumeration order, then first sequence in canonical
    /// descent order).
    pub fn plan_exhaustive(
        mgr: &LayoutManager,
        org: &PrrOrganization,
        config: &Defrag2Config,
    ) -> Option<Defrag2Plan> {
        let depth = config.depth.min(MAX_DEPTH) as usize;
        if config.depth == 0 {
            return None;
        }
        let device = mgr.device();
        let mut grid = NaiveFreeSpace::new(device);
        for a in mgr.allocations() {
            grid.allocate(&a.window);
        }
        let free = mgr.free_space();
        let width = org.width() as usize;
        if width == 0 || org.height < 1 || org.height > free.rows() {
            return None;
        }
        let rows = free.rows();
        let mut best: Option<Best> = None;
        for start in free.candidate_starts(org.clb_cols, org.dsp_cols, org.bram_cols) {
            for row in 1..=free.rows() - org.height + 1 {
                let admit = Window {
                    start_col: start,
                    width: width as u32,
                    row,
                    height: org.height,
                    columns: device.columns()[start..start + width].to_vec(),
                };
                let movers: Vec<&Allocation> = mgr
                    .allocation_map()
                    .values()
                    .filter(|a| overlaps(&a.window, &admit))
                    .collect();
                if movers.len() > depth {
                    continue;
                }
                let mut positions: Vec<Window> = movers.iter().map(|a| a.window.clone()).collect();
                let mut moved = vec![false; movers.len()];
                let mut seq = Vec::new();
                enumerate(
                    mgr,
                    config,
                    rows,
                    &admit,
                    &movers,
                    &mut grid,
                    &mut positions,
                    &mut moved,
                    &mut seq,
                    0,
                    &mut best,
                );
            }
        }
        best.map(|b| Defrag2Plan {
            total_move_ns: b.cost,
            total_move_bytes: b.seq.iter().map(|m| m.bytes).sum(),
            total_context_bytes: b.seq.iter().map(|m| m.context_bytes).sum(),
            moves: b.seq,
            admit: b.admit,
            nodes: 0,
        })
    }

    /// Recursive exhaustive sequence enumeration for one rectangle:
    /// movers by ascending allocation id, targets leftmost-then-bottom.
    #[allow(clippy::too_many_arguments)]
    fn enumerate(
        mgr: &LayoutManager,
        config: &Defrag2Config,
        rows: u32,
        admit: &Window,
        movers: &[&Allocation],
        grid: &mut NaiveFreeSpace,
        positions: &mut [Window],
        moved: &mut [bool],
        seq: &mut Vec<RelocationMove>,
        cost: u64,
        best: &mut Option<Best>,
    ) {
        if moved.iter().all(|&m| m) {
            let better = best
                .as_ref()
                .is_none_or(|b| (cost, seq.len()) < (b.cost, b.moves));
            if better {
                *best = Some(Best {
                    cost,
                    moves: seq.len(),
                    admit: admit.clone(),
                    seq: seq.clone(),
                });
            }
            return;
        }
        let columns = mgr.device().columns();
        for mi in 0..movers.len() {
            if moved[mi] {
                continue;
            }
            let from = positions[mi].clone();
            let bw = from.columns.len();
            let bh = from.height;
            let mut targets = Vec::new();
            for start in 0..=columns.len().saturating_sub(bw) {
                if columns[start..start + bw] != from.columns[..] {
                    continue;
                }
                for trow in 1..=rows - bh + 1 {
                    let to = Window {
                        start_col: start,
                        width: bw as u32,
                        row: trow,
                        height: bh,
                        columns: from.columns.clone(),
                    };
                    if !grid.is_free(start, bw, trow, bh) || overlaps(&to, admit) {
                        continue;
                    }
                    targets.push(to);
                }
            }
            for to in targets {
                let mc = mgr.move_cost(movers[mi], config.context_aware);
                grid.release(&from);
                grid.allocate(&to);
                positions[mi] = to.clone();
                moved[mi] = true;
                seq.push(RelocationMove {
                    id: movers[mi].id,
                    from: from.clone(),
                    to: to.clone(),
                    bytes: mc.bytes,
                    context_bytes: mc.context_bytes,
                    transfer_ns: mc.transfer_ns,
                });
                enumerate(
                    mgr,
                    config,
                    rows,
                    admit,
                    movers,
                    grid,
                    positions,
                    moved,
                    seq,
                    cost + mc.transfer_ns,
                    best,
                );
                seq.pop();
                moved[mi] = false;
                positions[mi] = from.clone();
                grid.release(&to);
                grid.allocate(&from);
            }
        }
    }
}
