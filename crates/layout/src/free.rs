//! Runtime free-space tracking over the device grid.
//!
//! [`FreeSpace`] keeps one occupancy bitmask per fabric row: bit `c % 64`
//! of word `c / 64` is set iff column `c` is free and PRR-eligible. A row
//! of a `width`-column device is `⌈width / 64⌉` words, whatever the
//! width. Allocate and release flip the rectangle's bits, a word XOR per
//! row word (allocate first checks the cells are free), and the free-cell
//! counts (total and per resource kind) are popcounts.
//!
//! Placement policy is **leftmost, then bottom**: candidate start
//! columns are tried in ascending order, and within a start column base
//! rows ascend. A composition's candidate starts are the spans holding
//! exactly `(W_CLB, W_DSP, W_BRAM)` columns and no IOB/CLK column: the
//! starts of long-enough runs in the wanted kinds' column mask, checked
//! against per-kind column prefix counts when more than one kind is
//! wanted. Construction is O(rows × words + width) and builds no span
//! index. [`FreeSpace::find_window`] ANDs the `height` rows above
//! each base row, keeps the starts of free runs at least `width` columns
//! wide, masks them with the candidate starts and takes the lowest start,
//! then the lowest base row. [`NaiveFreeSpace`] reimplements the same
//! policy by brute force over an occupancy grid and is the equivalence
//! oracle (and the bench baseline) for every query and metric.
//!
//! Forbidden (IOB/CLK) columns are never set, so the maximal runs of set
//! bits in a row are exactly its maximal free runs: two free runs can
//! only be separated by occupied eligible cells or forbidden columns.
//!
//! Fragmentation metrics are computed from the masks when asked:
//! [`FreeSpace::largest_free_rect`] ANDs row bands and measures their
//! longest runs, [`FreeSpace::run_width_histogram`] groups each row's set
//! bits into runs.

use fabric::{ColumnKind, Device, Window, WindowRequest};
use std::collections::BTreeMap;

/// Columns per mask word.
const BITS: usize = 64;

/// `(word, bits)` pairs covering columns `[start, end)`; `start < end`.
fn span_words(start: usize, end: usize) -> impl Iterator<Item = (usize, u64)> {
    let (first, last) = (start / BITS, (end - 1) / BITS);
    (first..=last).map(move |w| {
        let lo = if w == first { start % BITS } else { 0 };
        let hi = if w == last {
            (end - 1) % BITS + 1
        } else {
            BITS
        };
        (w, (u64::MAX >> (BITS - (hi - lo))) << lo)
    })
}

/// Set bit indices of `mask`, ascending.
pub(crate) fn set_bits(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * BITS + bit
            })
        })
    })
}

/// Length of the longest run of set bits in `mask`.
fn longest_run(mask: &[u64]) -> usize {
    let (mut best, mut carry) = (0, 0);
    for &word in mask {
        if word == u64::MAX {
            carry += BITS;
            continue;
        }
        let mut rest = word;
        let mut next_carry = 0;
        while rest != 0 {
            let start = rest.trailing_zeros() as usize;
            let len = (rest >> start).trailing_ones() as usize;
            let run = if start == 0 { carry + len } else { len };
            if start + len == BITS {
                next_carry = run;
                break;
            }
            best = best.max(run);
            rest &= !(((1u64 << len) - 1) << start);
        }
        best = best.max(carry);
        carry = next_carry;
    }
    best.max(carry)
}

/// Word `i` of `src` shifted down by `k` bits: bit `s` of the result is
/// bit `s + k` of `src`.
fn shifted(src: &[u64], k: usize, i: usize) -> u64 {
    let (q, r) = (k / BITS, k % BITS);
    let lo = src.get(i + q).copied().unwrap_or(0);
    if r == 0 {
        return lo;
    }
    (lo >> r) | (src.get(i + q + 1).copied().unwrap_or(0) << (BITS - r))
}

/// Keep in `x` only the starts of runs at least `len ≥ 1` bits long:
/// afterwards bit `s` is set iff bits `s..s + len` all were. Log-step
/// shift-and; each pass reads only words at or above the one it writes.
fn keep_run_starts(x: &mut [u64], len: usize) {
    let mut have = 1;
    while have < len {
        let k = have.min(len - have);
        for i in 0..x.len() {
            let next = shifted(x, k, i);
            x[i] &= next;
        }
        have += k;
    }
}

/// Incrementally maintained free-space map of one device.
#[derive(Debug, Clone)]
pub struct FreeSpace {
    rows: u32,
    columns: Vec<ColumnKind>,
    /// Words per row mask: `⌈width / 64⌉`.
    words: usize,
    /// Row masks, row `r` at `[(r - 1) * words, r * words)`: a set bit is
    /// a free, PRR-eligible column.
    free: Vec<u64>,
    /// Column masks of the CLB, DSP and BRAM columns.
    kinds: [Vec<u64>; 3],
    /// `prefix[c]`: CLB, DSP and BRAM columns among `[0, c)`.
    prefix: Vec<[u32; 3]>,
}

impl FreeSpace {
    /// An all-free map of `device`: O(rows × words + width).
    pub fn new(device: &Device) -> Self {
        let columns = device.columns().to_vec();
        let words = columns.len().div_ceil(BITS);
        let mut kinds = [vec![0u64; words], vec![0u64; words], vec![0u64; words]];
        let mut prefix = Vec::with_capacity(columns.len() + 1);
        let mut counts = [0u32; 3];
        prefix.push(counts);
        for (c, &kind) in columns.iter().enumerate() {
            if kind.allowed_in_prr() {
                let slot = kind.prr_count_slot();
                kinds[slot][c / BITS] |= 1 << (c % BITS);
                counts[slot] += 1;
            }
            prefix.push(counts);
        }
        let eligible: Vec<u64> = (0..words)
            .map(|w| kinds[0][w] | kinds[1][w] | kinds[2][w])
            .collect();
        FreeSpace {
            rows: device.rows(),
            free: eligible.repeat(device.rows() as usize),
            columns,
            words,
            kinds,
            prefix,
        }
    }

    /// Mask of fabric row `row` (1-based).
    fn row(&self, row: u32) -> &[u64] {
        &self.free[(row as usize - 1) * self.words..][..self.words]
    }

    /// Fabric rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Device width in columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Whether the composition exists anywhere on the (empty) device.
    pub fn is_achievable(&self, clb: u32, dsp: u32, bram: u32) -> bool {
        !self.candidate_starts(clb, dsp, bram).is_empty()
    }

    /// Ascending start columns whose span realises the composition on the
    /// empty device (occupancy not considered).
    pub fn candidate_starts(&self, clb: u32, dsp: u32, bram: u32) -> Vec<usize> {
        let mut mask = vec![0; self.words];
        self.candidate_mask(clb, dsp, bram, &mut mask);
        set_bits(&mask).collect()
    }

    /// Overwrite `out` with the mask of the composition's candidate
    /// starts. A start qualifies when its span lies in columns of the
    /// wanted kinds only (a run-start mask); with two or more kinds
    /// wanted, its per-kind prefix counts must match too.
    fn candidate_mask(&self, clb: u32, dsp: u32, bram: u32, out: &mut [u64]) {
        let want = [clb, dsp, bram];
        let span: usize = want.iter().map(|&n| n as usize).sum();
        out.fill(0);
        if span == 0 || span > self.columns.len() {
            return;
        }
        for (&n, kind) in want.iter().zip(&self.kinds) {
            if n > 0 {
                for (o, &k) in out.iter_mut().zip(kind) {
                    *o |= k;
                }
            }
        }
        keep_run_starts(out, span);
        if want.iter().filter(|&&n| n > 0).count() > 1 {
            for (w, word) in out.iter_mut().enumerate() {
                let mut rest = *word;
                while rest != 0 {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let s = w * BITS + bit;
                    let (a, b) = (&self.prefix[s], &self.prefix[s + span]);
                    if (0..3).any(|k| b[k] - a[k] != want[k]) {
                        *word &= !(1 << bit);
                    }
                }
            }
        }
    }

    /// Mask of the start columns whose span has exactly the column kinds
    /// `kinds`, in order: the relocation-compatible positions of a window
    /// with those columns.
    pub(crate) fn compatible_starts(&self, kinds: &[ColumnKind]) -> Vec<u64> {
        let mut mask = vec![u64::MAX; self.words];
        for (i, kind) in kinds.iter().enumerate() {
            let src = &self.kinds[kind.prr_count_slot()];
            for (w, m) in mask.iter_mut().enumerate() {
                *m &= shifted(src, i, w);
            }
        }
        mask
    }

    /// Overwrite `band` with the start columns of the all-free `width ×
    /// height` rectangles whose base row is `row`: the AND of the rows,
    /// narrowed to starts of runs at least `width` long.
    pub(crate) fn free_starts(&self, width: usize, row: u32, height: u32, band: &mut [u64]) {
        band.copy_from_slice(self.row(row));
        for r in row + 1..row + height {
            for (b, &m) in band.iter_mut().zip(self.row(r)) {
                *b &= m;
            }
        }
        keep_run_starts(band, width);
    }

    /// Whether every cell of the rectangle is currently free.
    pub fn is_free(&self, start_col: usize, width: usize, row: u32, height: u32) -> bool {
        if width == 0 || height == 0 || row < 1 || row + height - 1 > self.rows {
            return false;
        }
        let end = start_col + width;
        end <= self.columns.len()
            && (row..row + height).all(|r| {
                let mask = self.row(r);
                span_words(start_col, end).all(|(w, m)| mask[w] & m == m)
            })
    }

    /// First free window satisfying `req` under the leftmost-then-bottom
    /// policy, or `None`: per base row, the free starts
    /// (`FreeSpace::free_starts`) masked with the candidate starts; the
    /// lowest start wins, the lowest row on ties.
    pub fn find_window(&self, req: &WindowRequest) -> Option<Window> {
        let width = req.width() as usize;
        if width == 0 || width > self.columns.len() || req.height < 1 || req.height > self.rows {
            return None;
        }
        let mut buf = vec![0u64; 2 * self.words];
        let (cand, band) = buf.split_at_mut(self.words);
        self.candidate_mask(req.clb_cols, req.dsp_cols, req.bram_cols, cand);
        let first = set_bits(cand).next()?;
        let mut best: Option<(usize, u32)> = None;
        for row in 1..=self.rows - req.height + 1 {
            if best.is_some_and(|(s, _)| s == first) {
                break;
            }
            self.free_starts(width, row, req.height, band);
            for (b, &c) in band.iter_mut().zip(cand.iter()) {
                *b &= c;
            }
            if let Some(s) = set_bits(band).next() {
                best = Some(best.map_or((s, row), |b| b.min((s, row))));
            }
        }
        best.map(|(start, row)| Window {
            start_col: start,
            width: req.width(),
            row,
            height: req.height,
            columns: self.columns[start..start + width].to_vec(),
        })
    }

    /// Mark the window's cells occupied. The window must be fully free.
    pub fn allocate(&mut self, w: &Window) {
        self.allocate_rect(w.start_col, w.width as usize, w.row, w.height);
    }

    /// Rectangle form of [`FreeSpace::allocate`]: no `Window` (and hence
    /// no `columns` `Vec`) needs to exist — the defrag search applies
    /// moves through this.
    pub fn allocate_rect(&mut self, start_col: usize, width: usize, row: u32, height: u32) {
        assert!(
            self.is_free(start_col, width, row, height),
            "allocate of a non-free window"
        );
        self.flip_rect(start_col, width, row, height);
    }

    /// Return the window's cells to the free map.
    pub fn release(&mut self, w: &Window) {
        self.release_rect(w.start_col, w.width as usize, w.row, w.height);
    }

    /// Rectangle form of [`FreeSpace::release`].
    pub fn release_rect(&mut self, start_col: usize, width: usize, row: u32, height: u32) {
        debug_assert!(
            (row..row + height).all(|r| {
                let mask = self.row(r);
                span_words(start_col, start_col + width).all(|(w, m)| mask[w] & m == 0)
            }),
            "double free"
        );
        self.flip_rect(start_col, width, row, height);
    }

    /// Flip the rectangle's bits: allocate a free one, release an
    /// occupied one.
    fn flip_rect(&mut self, start_col: usize, width: usize, row: u32, height: u32) {
        for r in row..row + height {
            let base = (r as usize - 1) * self.words;
            for (w, m) in span_words(start_col, start_col + width) {
                self.free[base + w] ^= m;
            }
        }
    }

    /// Free eligible cells in total.
    pub fn total_free_cells(&self) -> u64 {
        self.free.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Free eligible cells per resource kind `(CLB, DSP, BRAM)`.
    pub fn free_cells_by_kind(&self) -> [u64; 3] {
        let mut by_kind = [0u64; 3];
        for mask in self.free.chunks_exact(self.words) {
            for (count, kind) in by_kind.iter_mut().zip(&self.kinds) {
                *count += mask
                    .iter()
                    .zip(kind)
                    .map(|(&f, &k)| u64::from((f & k).count_ones()))
                    .sum::<u64>();
            }
        }
        by_kind
    }

    /// Area (in cells) of the largest all-free rectangle: for each top
    /// row, the AND of ever taller row bands and its longest run, cut off
    /// once no taller band can beat the best area found. A band whose
    /// columns are all free in the row above (or below) it is skipped:
    /// the band one row taller has the same columns and a larger area.
    pub fn largest_free_rect(&self) -> u64 {
        let rows: Vec<&[u64]> = self.free.chunks_exact(self.words).collect();
        let within = |band: &[u64], row: &[u64]| band.iter().zip(row).all(|(&b, &r)| b & !r == 0);
        let mut band = vec![0u64; self.words];
        let mut best = 0u64;
        for top in 0..rows.len() {
            if top > 0 && within(rows[top], rows[top - 1]) {
                continue;
            }
            band.copy_from_slice(rows[top]);
            for bottom in top..rows.len() {
                for (b, &m) in band.iter_mut().zip(rows[bottom]) {
                    *b &= m;
                }
                if rows.get(bottom + 1).is_some_and(|next| within(&band, next)) {
                    continue;
                }
                let longest = longest_run(&band) as u64;
                best = best.max(longest * (bottom - top + 1) as u64);
                if longest * ((rows.len() - top) as u64) <= best {
                    break;
                }
            }
        }
        best
    }

    /// External-fragmentation index: `1 − largest free rectangle / total
    /// free cells`; `0` on an empty free map (nothing to fragment).
    pub fn fragmentation_index(&self) -> f64 {
        let free_cells = self.total_free_cells();
        if free_cells == 0 {
            return 0.0;
        }
        1.0 - self.largest_free_rect() as f64 / free_cells as f64
    }

    /// Histogram of free-run widths over all rows (width → run count):
    /// the per-resource shape of the free space, small-run-heavy
    /// distributions being the signature of external fragmentation.
    pub fn run_width_histogram(&self) -> BTreeMap<usize, u64> {
        let mut hist = BTreeMap::new();
        for mask in self.free.chunks_exact(self.words) {
            let mut bits = set_bits(mask).peekable();
            while let Some(start) = bits.next() {
                let mut end = start + 1;
                while bits.next_if_eq(&end).is_some() {
                    end += 1;
                }
                *hist.entry(end - start).or_insert(0u64) += 1;
            }
        }
        hist
    }
}

/// Brute-force oracle for [`FreeSpace`]: an occupancy grid with the same
/// API and the same leftmost-then-bottom policy, used by the equivalence
/// property suite and as the bench baseline.
#[derive(Debug, Clone)]
pub struct NaiveFreeSpace {
    rows: u32,
    columns: Vec<ColumnKind>,
    /// `occupied[row - 1][col]`; forbidden columns are permanently true.
    occupied: Vec<Vec<bool>>,
}

impl NaiveFreeSpace {
    /// An all-free map of `device`.
    pub fn new(device: &Device) -> Self {
        let columns = device.columns().to_vec();
        let row: Vec<bool> = columns.iter().map(|k| !k.allowed_in_prr()).collect();
        NaiveFreeSpace {
            rows: device.rows(),
            columns,
            occupied: vec![row; device.rows() as usize],
        }
    }

    /// Whether every cell of the rectangle is free (and eligible).
    pub fn is_free(&self, start_col: usize, width: usize, row: u32, height: u32) -> bool {
        if width == 0 || height == 0 || row < 1 || row + height - 1 > self.rows {
            return false;
        }
        if start_col + width > self.columns.len() {
            return false;
        }
        (row..row + height).all(|r| {
            self.occupied[(r - 1) as usize][start_col..start_col + width]
                .iter()
                .all(|&o| !o)
        })
    }

    /// Linear-scan first fit under the same leftmost-then-bottom policy.
    pub fn find_window(&self, req: &WindowRequest) -> Option<Window> {
        let width = req.width() as usize;
        if width == 0 || width > self.columns.len() || req.height < 1 || req.height > self.rows {
            return None;
        }
        for start in 0..=self.columns.len() - width {
            let mut counts = [0u32; 3];
            let span = &self.columns[start..start + width];
            if span.iter().any(|k| !k.allowed_in_prr()) {
                continue;
            }
            for &k in span {
                counts[k.prr_count_slot()] += 1;
            }
            if counts != [req.clb_cols, req.dsp_cols, req.bram_cols] {
                continue;
            }
            for row in 1..=self.rows - req.height + 1 {
                if self.is_free(start, width, row, req.height) {
                    return Some(Window {
                        start_col: start,
                        width: req.width(),
                        row,
                        height: req.height,
                        columns: span.to_vec(),
                    });
                }
            }
        }
        None
    }

    /// Mark the window's cells occupied.
    pub fn allocate(&mut self, w: &Window) {
        for r in w.row..w.row + w.height {
            for c in w.start_col..w.end_col() {
                assert!(
                    !self.occupied[(r - 1) as usize][c],
                    "allocate of occupied cell"
                );
                self.occupied[(r - 1) as usize][c] = true;
            }
        }
    }

    /// Mark the window's cells free again.
    pub fn release(&mut self, w: &Window) {
        for r in w.row..w.row + w.height {
            for c in w.start_col..w.end_col() {
                self.occupied[(r - 1) as usize][c] = false;
            }
        }
    }

    /// Free eligible cells in total.
    pub fn total_free_cells(&self) -> u64 {
        self.occupied.iter().flatten().filter(|&&o| !o).count() as u64
    }

    /// Free eligible cells per resource kind `(CLB, DSP, BRAM)`.
    pub fn free_cells_by_kind(&self) -> [u64; 3] {
        let mut by_kind = [0u64; 3];
        for row in &self.occupied {
            for (c, &o) in row.iter().enumerate() {
                if !o {
                    by_kind[self.columns[c].prr_count_slot()] += 1;
                }
            }
        }
        by_kind
    }

    /// Largest all-free rectangle by row-pair enumeration, O(rows² × width).
    pub fn largest_free_rect(&self) -> u64 {
        let rows = self.rows as usize;
        let width = self.columns.len();
        let mut best = 0u64;
        for top in 0..rows {
            let mut free_depth = vec![true; width];
            for bottom in top..rows {
                for (f, &occ) in free_depth.iter_mut().zip(&self.occupied[bottom]) {
                    *f &= !occ;
                }
                let h = (bottom - top + 1) as u64;
                let mut run = 0u64;
                for &f in &free_depth {
                    if f {
                        run += 1;
                        best = best.max(run * h);
                    } else {
                        run = 0;
                    }
                }
            }
        }
        best
    }

    /// External-fragmentation index, same definition as [`FreeSpace`].
    pub fn fragmentation_index(&self) -> f64 {
        let total = self.total_free_cells();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.largest_free_rect() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{Device, Family, ResourceKind::*};

    fn strip(width: u32) -> Device {
        Device::new("strip", Family::Virtex5, 1, vec![Clb; width as usize]).unwrap()
    }

    fn win(start: usize, width: usize, row: u32, height: u32) -> Window {
        Window {
            start_col: start,
            width: width as u32,
            row,
            height,
            columns: vec![Clb; width],
        }
    }

    #[test]
    fn fresh_map_is_all_free_and_unfragmented() {
        let d = fabric::database::xc5vlx110t();
        let fs = FreeSpace::new(&d);
        let naive = NaiveFreeSpace::new(&d);
        assert_eq!(fs.total_free_cells(), naive.total_free_cells());
        assert_eq!(fs.free_cells_by_kind(), naive.free_cells_by_kind());
        assert_eq!(fs.largest_free_rect(), naive.largest_free_rect());
        assert_eq!(fs.fragmentation_index(), naive.fragmentation_index());
    }

    #[test]
    fn release_merges_touching_runs() {
        let d = strip(8);
        let mut fs = FreeSpace::new(&d);
        let a = win(0, 3, 1, 1);
        let b = win(3, 2, 1, 1);
        let c = win(5, 3, 1, 1);
        fs.allocate(&a);
        fs.allocate(&b);
        fs.allocate(&c);
        assert_eq!(fs.total_free_cells(), 0);
        fs.release(&a);
        fs.release(&c);
        // Two runs split by b; releasing b merges everything back.
        assert_eq!(fs.run_width_histogram(), BTreeMap::from([(3, 2)]));
        assert_eq!(fs.largest_free_rect(), 3);
        assert!(fs.fragmentation_index() > 0.4);
        fs.release(&b);
        assert_eq!(fs.run_width_histogram(), BTreeMap::from([(8, 1)]));
        assert_eq!(fs.fragmentation_index(), 0.0);
    }

    #[test]
    fn find_window_is_leftmost_then_bottom() {
        let d = Device::new("sq", Family::Virtex5, 3, vec![Clb; 6]).unwrap();
        let mut fs = FreeSpace::new(&d);
        // Occupy the bottom-left 2×2 corner: a 2-wide 1-tall request must
        // land at column 0 row 3 (leftmost start wins over lower row).
        fs.allocate(&Window {
            start_col: 0,
            width: 2,
            row: 1,
            height: 2,
            columns: vec![Clb; 2],
        });
        let w = fs.find_window(&WindowRequest::new(2, 0, 0, 1)).unwrap();
        assert_eq!((w.start_col, w.row), (0, 3));
    }

    #[test]
    fn fragmentation_blocks_wide_requests() {
        let d = strip(8);
        let mut fs = FreeSpace::new(&d);
        fs.allocate(&win(3, 2, 1, 1));
        // 6 cells free but the widest span is 3.
        assert_eq!(fs.total_free_cells(), 6);
        assert!(fs.find_window(&WindowRequest::new(4, 0, 0, 1)).is_none());
        assert!(fs.find_window(&WindowRequest::new(3, 0, 0, 1)).is_some());
    }
}
