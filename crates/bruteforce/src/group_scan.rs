//! The stage-2 kernel of the RBC searches: one ownership list scanned for
//! the queries whose pruning rules selected it — **intervals, then
//! screened, then dense**.
//!
//! **Intervals.** Members are sorted by their distance to the list's
//! representative, so the members neither triangle-inequality cut rules out
//! for a query (`d_to_rep − d_xr > t`, `d_xr − d_to_rep > t`, with `t` the
//! smaller of the query's top-k threshold and its `threshold_cap`, over
//! `shrink`, the `(1+ε)` relaxation) form one contiguous *run*. Each
//! cursor's run is found by two binary searches before any distance is
//! computed and rounded outward to whole lane groups; a cursor whose run is
//! empty never touches the list. A mirrored list is searched through its
//! per-lane-group `(first, last)` summary of the member distances — a
//! quarter of the bytes, and the same range.
//!
//! **Screened.** Inside its run a cursor scores a block of lane groups at a
//! time, each group masked by a screen against the cursor's *bound* — the
//! same `t` the run was cut with, the smaller of its top-k threshold and its
//! `threshold_cap` — [`Metric::screen_lanes`] over a mirror of `f32` lanes,
//! a window of sixteen groups per call for up to [`SCREEN_QUERIES`] cursors
//! at once, [`Metric::screen_codes`] over one of `u8` codes, one block per
//! call and cursor; for the Euclidean metrics one pure `f32` pass that may
//! clear a lane only when its distance is certainly above the bound at the
//! call, and so above every later one. A cleared lane is neither scored nor
//! offered, and a group left without a kept lane is done. Of the rescored
//! lanes, only those at or under the bound are offered to the collector. So
//! the cap bounds the run, the screen and the offers alike: a scan into an
//! empty accumulator (a cluster node's) collects only candidates at or
//! under its cap, and one whose accumulator already sits at or under the
//! cap (the in-process searches') is unchanged by it. The screen decides
//! only what is skipped: every distance that reaches `TopK` is computed by
//! the canonical kernels below, so answers, ties, thresholds and evaluation
//! counts do not depend on it.
//!
//! **Dense.** The kept lanes are scored canonically — a whole group at once
//! from an `f32` [`ListMirror`], lane by lane from the row-major database
//! for a coded mirror (codes are no distances) and for a metric without a
//! lane kernel (no screen: every lane is kept). The mirror's lane mask
//! discards padding and skip-flagged members. Which kind of mirror a list
//! has is its index's choice: the one-shot lists, about 16 copies of the
//! database between them and each streamed whole by the few queries that
//! chose it, are coded; the exact lists, a partition of the database that
//! a batch reads again and again from cache, keep their `f32` lanes, whose
//! surviving groups are rescored from the group the screen just read.
//! Pruning is decided between blocks (a block that tightened the threshold
//! so far that an end group of the rest of the run is cut re-clips the
//! rest), never inside the scoring loop. Rounding
//! outward only adds evaluations of real, unflagged members and a stale
//! threshold only prunes *less*, so with strict thresholds
//! (`shrink == 1.0`) answers are those of a full private scan; `TopK`
//! breaks ties deterministically.
//!
//! **Shared.** A group's cursors run on one thread in *tiles* of up to
//! [`SCREEN_QUERIES`], taken in ascending `d_to_rep`, so that the runs of a
//! tile overlap. A tile walks the union of its cursors' runs one window at
//! a time, and the screen loads each lane group of a window once for every
//! cursor of the tile whose run reaches into it; each cursor then scores
//! the groups of the window inside its own run, in its own blocks, with
//! its own re-clips, exactly as it would alone. So every cursor's
//! evaluations, skips and answers are those of a scan of its own, and the
//! list is fetched from memory once per group scan — the traffic saving
//! of list-major batching, which [`GroupScanStats::tile_passes`] counts.
//! Each cursor scans into a private copy of its query's accumulator, and
//! hands it over whole when no other scan admitted anything into the
//! query's accumulator in the meantime.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::Mutex;

use rbc_metric::{BlockedVectors, CodedVectors, Dataset, Dist, Metric, LANES, SCREEN_QUERIES};

use crate::neighbor::Neighbor;
use crate::primitive::BruteForce;
use crate::topk::TopK;

// A lane mask is one byte per lane group.
const _: () = assert!(LANES == 8);

/// Lane groups a cursor scores between two chances to re-clip its run: it
/// bounds how far a scan overshoots a cut that moved (`exact_batch`
/// evaluates the same ±1 % at any grain from 2 to 16; at n = 200 000,
/// k = 10 and batches of 128 a phase-A cursor evaluates ≈ 841 lanes, about
/// 105 groups, and a phase-B cursor ≈ 420–440 lanes, 52–55 groups). It is
/// also the screen's grain on a coded mirror, whose kept lanes are
/// rescored from database rows, and four groups give the screen kernel
/// four independent accumulators. A re-clip grain that differed by
/// lane kind would make the evaluation counts differ by lane kind too.
const RECLIP_GROUPS: usize = 4;

/// Lane groups one [`Metric::screen_lanes`] call covers on an `f32` mirror,
/// screened against the threshold at the call and consumed
/// [`RECLIP_GROUPS`] at a time. A mask from a staler threshold only keeps
/// more lanes, each rescored from the group just read and turned away by
/// `TopK`, so the work and the answers are those of one screen per block;
/// the kernel call and its setup are paid once per 16 groups. Measured on a
/// 2-vCPU AVX2+FMA host: `exact_batch` (n = 200 000, k = 10) read 68.4 k
/// `qps` at a grain of 4 and 71.0 k at 16 (4 of 4 pairs); the same grain on
/// coded mirrors took `oneshot_batch` from 187 k to 153 k, since their kept
/// lanes are rescored from rows, so those keep one screen per block.
const SCREEN_AHEAD_GROUPS: usize = 16;

/// Per-query cursor state for a shared ownership-list scan
/// ([`BruteForce::knn_group_in_list`]).
///
/// The `query` field indexes both the query dataset and the accumulator
/// slice; the remaining fields drive the per-query sorted-list
/// triangle-inequality cut.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GroupCursor {
    /// Position of the query within the batch — also the index of its
    /// top-k accumulator in the accumulator slice.
    pub query: usize,
    /// Distance from this query to the list's representative, `ρ(q, r)`.
    pub d_to_rep: Dist,
    /// Static cap on the cursor's bound: the scan's run, its screen and
    /// the candidates it offers are all held to the smaller of the evolving
    /// top-k threshold and this cap (the exact search's `γ_k`, or the
    /// round's cap a cluster node was sent), so no candidate above the cap
    /// is collected. `Dist::INFINITY` (or NaN) leaves only the top-k
    /// threshold.
    pub threshold_cap: Dist,
}

impl GroupCursor {
    /// The cursor's bound when its collector's k-th distance is `kth`:
    /// the smaller of that and the cap (`min` takes the number, so a NaN
    /// cap leaves `kth`). Every decision of a scan reads it: the entry run,
    /// the re-clips, the screen of each window and which rescored lanes are
    /// offered.
    #[inline]
    fn bound(&self, kth: Dist) -> Dist {
        kth.min(self.threshold_cap)
    }

    /// The sorted-list cut on the near side: a member at `d_xr` from the
    /// list's representative is at least `d_to_rep − d_xr` from the query,
    /// farther than the bound `t` allows. Monotone in `d_xr`, and false on
    /// NaN.
    #[inline]
    fn behind(&self, d_xr: Dist, t: Dist) -> bool {
        self.d_to_rep - d_xr > t
    }

    /// The sorted-list cut on the far side: a member at `d_xr` is at least
    /// `d_xr − d_to_rep` from the query. Monotone in `d_xr` the other way,
    /// and false on NaN.
    #[inline]
    fn beyond(&self, d_xr: Dist, t: Dist) -> bool {
        d_xr - self.d_to_rep > t
    }

    /// Whether a sorted-cut scan of a list of radius `radius` (its largest
    /// member distance) would find this cursor's run empty when the query's
    /// top-k threshold is `kth`: the near-side cut holds at the radius, so
    /// it holds for every member. Strict, like the cut itself — a list that
    /// may hold a point at exactly `kth` is kept, so ties still resolve by
    /// index — and false on NaN. Callers skip the scan when it is true.
    pub fn run_is_empty(&self, radius: Dist, kth: Dist, shrink: f64) -> bool {
        self.behind(radius, self.bound(kth) / shrink)
    }
}

/// Work accounting of one list scan.
///
/// Per cursor, `evaluations + skipped + masked = members`: an *evaluation*
/// is a live lane of a lane group in the cursor's run (screened, and
/// recomputed canonically if the screen kept it), *masked* are the
/// skip-flagged members inside those groups (never offered).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GroupScanStats {
    /// Distinct `db_tile`-sized tiles of the list (whole lane groups) that
    /// at least one cursor scored a group in. A tile is counted **once** no
    /// matter how many queries of the group consumed it — this is the
    /// memory-traffic measure that list-major batching reduces.
    pub tile_passes: u64,
    /// Total distance evaluations across all cursors: every unflagged
    /// member of every lane group a cursor scored. Always one per
    /// `(query, point)` pair: a distance belongs to exactly one query and
    /// can never be shared, only the tile it reads can.
    pub distance_evals: u64,
    /// Members outside the lane groups a cursor scored, summed over
    /// cursors: what the sorted-list cut saved.
    pub points_skipped: u64,
    /// Distance evaluations attributed to each cursor, parallel to the
    /// input cursor slice (lets callers keep per-query tail statistics
    /// exact even though the scan itself is shared).
    pub evals_per_cursor: Vec<u64>,
    /// Lane groups with a lane rescored canonically, summed over cursors:
    /// the groups of the runs that survived [`Metric::screen_lanes`] or
    /// [`Metric::screen_codes`] (all of them for a metric without a screen).
    /// Unlike every other field this depends on the active kernel's rounding
    /// and, through the threshold each screen was called at, on scan order
    /// and on how far ahead a screen reaches — report it, never gate on it
    /// or compare it for equality.
    pub reranked: u64,
}

/// The lane-blocked mirror of one ownership list in member order (lane group
/// `g` holds `members[g * LANES..]`), plus one byte per lane group naming
/// the lanes a scan may admit: real members (not the padding of the last
/// group) that carry no skip flag. Gathered once — at index build or shard
/// load — so a scan never goes back to the flag table. A list scanned with
/// the sorted-list cut also gets, per lane group, the first and last of its
/// members' distances to the representative: the table the run search reads
/// in place of `member_dists`, four times its size.
///
/// The lanes themselves are one of two things, chosen by whoever builds the
/// list ([`gather`](Self::gather) or [`gather_codes`](Self::gather_codes)):
/// the members' `f32` coordinates, which the scan screens *and* scores from;
/// or one `u8` code per coordinate ([`CodedVectors`]), which it only screens
/// from, scoring the lanes that survive from the row-major database.
#[derive(Clone, Debug, PartialEq)]
pub struct ListMirror {
    lanes: Lanes,
    live: Vec<u8>,
    /// `(first, last)` member distance of each lane group; empty when the
    /// mirror was gathered without distances.
    summary: Vec<(Dist, Dist)>,
}

/// What a [`ListMirror`] keeps of its members' coordinates.
#[derive(Clone, Debug, PartialEq)]
enum Lanes {
    Floats(BlockedVectors),
    Codes(CodedVectors),
}

impl ListMirror {
    /// Gathers `members` out of `db` as `f32` lanes, masking the members
    /// flagged in `skip`. `member_dists`, for a list that will be scanned
    /// with the sorted-list cut, are the members' ascending distances to the
    /// list's representative — the ones the scans will be handed. `None`
    /// when the dataset has no blocked layout.
    ///
    /// # Panics
    /// Panics if `member_dists` is given and is not one distance per member.
    pub fn gather<D: Dataset>(
        db: &D,
        members: &[usize],
        member_dists: Option<&[Dist]>,
        skip: Option<&[bool]>,
    ) -> Option<Self> {
        let blocks = db.gather_blocked(members)?;
        Some(Self::with_lanes(
            Lanes::Floats(blocks),
            members,
            member_dists,
            skip,
        ))
    }

    /// [`gather`](Self::gather), but the lanes are `u8` codes quantised
    /// straight from `db`'s rows ([`Dataset::gather_coded`]): a quarter of
    /// the bytes, screened with [`Metric::screen_codes`], every surviving
    /// lane scored from `db` itself. `None` when the dataset cannot code.
    ///
    /// # Panics
    /// Panics if `member_dists` is given and is not one distance per member.
    pub fn gather_codes<D: Dataset>(
        db: &D,
        members: &[usize],
        member_dists: Option<&[Dist]>,
        skip: Option<&[bool]>,
    ) -> Option<Self> {
        let codes = db.gather_coded(members)?;
        Some(Self::with_lanes(
            Lanes::Codes(codes),
            members,
            member_dists,
            skip,
        ))
    }

    fn with_lanes(
        lanes: Lanes,
        members: &[usize],
        member_dists: Option<&[Dist]>,
        skip: Option<&[bool]>,
    ) -> Self {
        let live = members.chunks(LANES).map(|g| live_lanes(g, skip)).collect();
        let summary = member_dists.map_or_else(Vec::new, |dists| {
            assert_eq!(
                dists.len(),
                members.len(),
                "a list mirror needs one representative distance per member"
            );
            dists
                .chunks(LANES)
                .map(|g| (g[0], g[g.len() - 1]))
                .collect()
        });
        Self {
            lanes,
            live,
            summary,
        }
    }

    /// The codes of a coded mirror; `None` for one holding `f32` lanes.
    pub fn codes(&self) -> Option<&CodedVectors> {
        match &self.lanes {
            Lanes::Floats(_) => None,
            Lanes::Codes(codes) => Some(codes),
        }
    }

    /// Number of members mirrored.
    fn len(&self) -> usize {
        match &self.lanes {
            Lanes::Floats(blocks) => blocks.len(),
            Lanes::Codes(codes) => codes.len(),
        }
    }

    /// Screens lane groups `groups` for each of `queries` against its
    /// bound, with the metric's screen for the kind of lanes held: query
    /// `t`'s masks go to `keep[t * groups.len()..]`. An `f32` mirror loads
    /// each group once for the whole tile; a coded one is screened query by
    /// query.
    fn screen<T: ?Sized, M: Metric<T>>(
        &self,
        metric: &M,
        queries: &[&T],
        groups: Range<usize>,
        bounds: &[Dist],
        keep: &mut [u8],
    ) {
        match &self.lanes {
            Lanes::Floats(blocks) => {
                metric.screen_lanes(queries, blocks.block(groups), bounds, keep)
            }
            Lanes::Codes(codes) => {
                let width = groups.len();
                for (t, (&q, &bound)) in queries.iter().zip(bounds).enumerate() {
                    let keep = &mut keep[t * width..][..width];
                    metric.screen_codes(q, codes.block(groups.clone()), bound, keep);
                }
            }
        }
    }
}

/// Bit `lane` is set iff `group[lane]` exists and is not flagged in `skip`.
fn live_lanes(group: &[usize], skip: Option<&[bool]>) -> u8 {
    group.iter().enumerate().fold(0, |mask, (lane, &member)| {
        mask | (u8::from(!skip.is_some_and(|flags| flags[member])) << lane)
    })
}

/// Scan state reused across a thread's scans, so the steady state
/// allocates nothing per (cursor, list) pair.
struct Scratch {
    /// One slot per cursor of a tile.
    slots: Vec<Slot>,
    /// The group's cursors by position, in ascending `d_to_rep`.
    order: Vec<usize>,
    /// Per lane group of the list: did any cursor score it? A tile with a
    /// scored group is a tile pass.
    scored: Vec<bool>,
}

/// One cursor of a tile, mid-scan.
struct Slot {
    /// The cursor's position in the group.
    at: usize,
    cursor: GroupCursor,
    /// What is left of the cursor's run: `run.start` is the next lane group
    /// it scores.
    run: Range<usize>,
    /// Where the block of [`RECLIP_GROUPS`] groups being scored ends, and
    /// the run may be re-clipped.
    block_end: usize,
    /// The bound the run was last clipped against.
    clipped_at: Dist,
    /// The shared accumulator's admissions when `local` was seeded from it.
    seen: u64,
    /// The cursor's private collector: seeded from the shared accumulator
    /// when its scan starts, tightening from its own candidates only.
    local: TopK,
    /// Candidates `local` admitted — what the shared accumulator has not
    /// seen yet and is handed when the cursor's run is exhausted.
    fresh: Vec<Neighbor>,
    work: CursorWork,
}

impl Slot {
    fn new() -> Self {
        Self {
            at: 0,
            cursor: GroupCursor::default(),
            run: 0..0,
            block_end: 0,
            clipped_at: Dist::INFINITY,
            seen: 0,
            local: TopK::new(1),
            fresh: Vec::new(),
            work: CursorWork::default(),
        }
    }

    /// Readies the slot for the cursor at position `at` of its group, whose
    /// entry run is `run`, seeding its collector from the `shared`
    /// accumulator.
    fn seed(&mut self, at: usize, cursor: GroupCursor, run: Range<usize>, shared: &TopK) {
        self.local.clone_from(shared);
        self.seen = shared.admissions;
        self.block_end = (run.start + RECLIP_GROUPS).min(run.end);
        (self.at, self.cursor, self.run) = (at, cursor, run);
        self.clipped_at = self.bound();
        self.work = CursorWork::default();
    }

    /// The cursor's bound now ([`GroupCursor::bound`] at its collector's
    /// k-th): what the run is clipped to, each window is screened against
    /// and a rescored lane must not exceed to be offered.
    #[inline]
    fn bound(&self) -> Dist {
        self.cursor.bound(self.local.threshold())
    }

    /// Closes the block that ended at `run.start`: when it tightened the
    /// bound so far that an end group of the rest of the run is cut, the
    /// rest is re-clipped. Then the next block begins.
    fn next_block<D: Dataset, M: Metric<D::Item>>(&mut self, list: &ListScan<'_, D, M>) {
        let tightened = self.bound();
        if tightened < self.clipped_at && !self.run.is_empty() {
            self.clipped_at = tightened;
            if list.ends_can_move(&self.cursor, tightened, &self.run) {
                self.run = list.clip(&self.cursor, tightened, self.run.clone());
            }
        }
        self.block_end = (self.run.start + RECLIP_GROUPS).min(self.run.end);
    }
}

thread_local! {
    static SCRATCH: RefCell<Option<Scratch>> = const { RefCell::new(None) };
}

/// Feeds one group scan's accounting into the global trace registry
/// (`rbc_bf_*` counters). Only called when tracing is enabled; the
/// registry handles are cached per thread so the steady-state cost is
/// four relaxed atomic adds, not a registry lock per scan.
fn record_group_scan(stats: &GroupScanStats) {
    thread_local! {
        static BF_COUNTERS: RefCell<Option<[rbc_trace::Counter; 4]>> =
            const { RefCell::new(None) };
    }
    BF_COUNTERS.with(|cell| {
        let mut cell = cell.borrow_mut();
        let [tiles, evals, skipped, reranked] = cell.get_or_insert_with(|| {
            let registry = rbc_trace::registry();
            [
                registry.counter("rbc_bf_tile_passes_total"),
                registry.counter("rbc_bf_distance_evals_total"),
                registry.counter("rbc_bf_points_skipped_total"),
                registry.counter("rbc_bf_reranked_groups_total"),
            ]
        });
        tiles.add(stats.tile_passes);
        evals.add(stats.distance_evals);
        skipped.add(stats.points_skipped);
        reranked.add(stats.reranked);
    });
}

/// One list as every cursor of a scan sees it.
struct ListScan<'a, D, M> {
    db: &'a D,
    metric: &'a M,
    members: &'a [usize],
    /// Empty when the sorted-list cut is off.
    member_dists: &'a [Dist],
    /// The mirror's per-lane-group `(first, last)` of `member_dists`; empty
    /// when the cut is off or the list has no summary, and the run search
    /// then reads `member_dists` itself.
    summary: &'a [(Dist, Dist)],
    shrink: f64,
    skip: Option<&'a [bool]>,
    /// `None` selects the row-major fallback.
    mirror: Option<&'a ListMirror>,
    tile_groups: usize,
}

/// What one cursor's scan of its run did.
#[derive(Default)]
struct CursorWork {
    /// Live lanes of the lane groups in the run: the evaluations made.
    evals: u64,
    /// Lane groups the screen kept, recomputed canonically.
    reranked: u64,
    /// Real members (padding excluded) of the lane groups in the run.
    scored: usize,
}

impl<'a, D, M> ListScan<'a, D, M>
where
    D: Dataset,
    M: Metric<D::Item>,
{
    #[allow(clippy::too_many_arguments)] // the flat kernel signature, forwarded
    fn new(
        bf: &BruteForce,
        db: &'a D,
        metric: &'a M,
        members: &'a [usize],
        member_dists: &'a [Dist],
        shrink: f64,
        sorted_cut: bool,
        skip: Option<&'a [bool]>,
        mirror: Option<&'a ListMirror>,
    ) -> Self {
        // The one thing the cut cannot do without. A mirror gathered
        // without distances is fine: its list is searched member by member.
        assert!(
            !sorted_cut || member_dists.len() == members.len(),
            "sorted-list cut needs one representative distance per member"
        );
        let mirror = mirror.filter(|m| metric.lanes_supported() && m.len() == members.len());
        Self {
            db,
            metric,
            members,
            member_dists: if sorted_cut { member_dists } else { &[] },
            summary: match mirror {
                Some(mirror) if sorted_cut => &mirror.summary,
                _ => &[],
            },
            shrink,
            skip,
            mirror,
            tile_groups: (bf.config().db_tile / LANES).max(1),
        }
    }

    fn groups(&self) -> usize {
        self.members.len().div_ceil(LANES)
    }

    /// This thread's scratch, with no lane group of this list scored yet.
    fn scratch(&self) -> Scratch {
        let mut scratch = SCRATCH.take().unwrap_or_else(|| Scratch {
            slots: Vec::with_capacity(SCREEN_QUERIES),
            order: Vec::new(),
            scored: Vec::new(),
        });
        scratch.scored.clear();
        scratch.scored.resize(self.groups(), false);
        scratch
    }

    /// Reads one entry of every cache line of the run-search summary. The
    /// reads do not depend on each other, so their misses overlap, where the
    /// first cursor's binary searches would wait for one miss after another
    /// (`exact_batch`, one thread: ≈ 3 % of a query).
    fn touch_summary(&self) {
        let lines = self.summary.iter().step_by(4);
        std::hint::black_box(lines.fold(0u64, |acc, ends| acc ^ ends.0.to_bits()));
    }

    /// The tiles of the list holding a lane group some cursor `scored`.
    fn tile_passes(&self, scored: &[bool]) -> u64 {
        let tiles = scored.chunks(self.tile_groups);
        tiles.filter(|tile| tile.contains(&true)).count() as u64
    }

    /// The members of lane group `g` (fewer than `LANES` in the last one).
    fn group_members(&self, g: usize) -> Range<usize> {
        g * LANES..((g + 1) * LANES).min(self.members.len())
    }

    /// The lanes of group `g` a scan may admit.
    #[inline]
    fn live(&self, g: usize) -> u8 {
        match self.mirror {
            Some(mirror) => mirror.live[g],
            None => live_lanes(&self.members[self.group_members(g)], self.skip),
        }
    }

    /// Writes the canonical distances from `q` to the `lanes` of group `g`:
    /// the whole group from an `f32` mirror, or member by member from the
    /// row-major `db` — for a coded mirror (whose codes are no distances)
    /// and for metrics without a lane kernel.
    #[inline]
    fn score(&self, q: &D::Item, g: usize, lanes: u8, out: &mut [Dist; LANES]) {
        if let Some(Lanes::Floats(blocks)) = self.mirror.map(|mirror| &mirror.lanes) {
            let computed = self.metric.dist_lanes(q, blocks.group(g), out);
            debug_assert!(computed, "lanes_supported() metric must compute lanes");
            return;
        }
        let group = &self.members[self.group_members(g)];
        for (lane, &member) in group.iter().enumerate() {
            if (lanes >> lane) & 1 != 0 {
                out[lane] = self.metric.dist(q, self.db.get(member));
            }
        }
    }

    /// The part of `groups` a cursor whose top-k threshold is `bound` can
    /// still need, rounded outward to whole lane groups. The predicates are
    /// the scan's two triangle-inequality cuts, both monotone in the sorted
    /// member distance and both false on NaN (a NaN bound or `d_to_rep`
    /// keeps the whole window).
    fn clip(&self, cursor: &GroupCursor, bound: Dist, groups: Range<usize>) -> Range<usize> {
        if self.member_dists.is_empty() {
            return groups;
        }
        let t = bound / self.shrink;
        if self.summary.is_empty() {
            self.clip_by_members(cursor, t, groups)
        } else {
            self.clip_by_summary(cursor, t, groups)
        }
    }

    /// [`clip`](Self::clip) by two binary searches over the members of
    /// `groups`: the first member the near-side cut lets through, then the
    /// first after it the far-side cut rules out.
    fn clip_by_members(&self, cursor: &GroupCursor, t: Dist, groups: Range<usize>) -> Range<usize> {
        let first = groups.start * LANES;
        let window = &self.member_dists[first..(groups.end * LANES).min(self.members.len())];
        let lo = window.partition_point(|&d| cursor.behind(d, t));
        let hi = lo + window[lo..].partition_point(|&d| !cursor.beyond(d, t));
        if lo == hi {
            return groups.end..groups.end;
        }
        (first + lo) / LANES..(first + hi).div_ceil(LANES)
    }

    /// [`clip_by_members`](Self::clip_by_members), to the same range, from
    /// the per-group summary. The cuts are monotone, so the first group
    /// holding a member the near-side cut lets through is the first whose
    /// *last* member it lets through, and every later group is in the run
    /// exactly while its *first* member is not beyond the far-side cut. Only
    /// a run that begins and ends inside one group needs that group's own
    /// members, to say whether anything lies between the two cuts.
    fn clip_by_summary(&self, cursor: &GroupCursor, t: Dist, groups: Range<usize>) -> Range<usize> {
        let empty = groups.end..groups.end;
        let window = &self.summary[groups.clone()];
        let lo = window.partition_point(|&(_, last)| cursor.behind(last, t));
        if lo == window.len() {
            return empty;
        }
        let after = &window[lo + 1..];
        let hi = lo + 1 + after.partition_point(|&(first, _)| !cursor.beyond(first, t));
        let run = groups.start + lo..groups.start + hi;
        let in_one_group = hi == lo + 1 && cursor.beyond(window[lo].1, t);
        if in_one_group && self.clip_by_members(cursor, t, run.clone()).is_empty() {
            return empty;
        }
        run
    }

    /// The run of a cursor whose top-k threshold is `kth` on entry.
    fn enter(&self, cursor: &GroupCursor, kth: Dist) -> Range<usize> {
        self.clip(cursor, cursor.bound(kth), 0..self.groups())
    }

    /// The distances to the representative of the first and the last member
    /// of lane group `g`, from the summary when the list has one.
    #[inline]
    fn group_ends(&self, g: usize) -> (Dist, Dist) {
        match self.summary.get(g) {
            Some(&ends) => ends,
            None => {
                let members = self.group_members(g);
                (
                    self.member_dists[members.start],
                    self.member_dists[members.end - 1],
                )
            }
        }
    }

    /// Whether [`clip`](Self::clip) at `bound` could return anything but the
    /// non-empty `run`. Both cuts are monotone in the sorted member
    /// distance, so only an end group can leave: the first one when its last
    /// member is behind the near cut, the last one when its first member is
    /// beyond the far cut, and a lone group also when its last member is
    /// beyond the far cut (its members may then all be cut one way or the
    /// other). When none of these holds, `clip` returns `run` as it is.
    #[inline]
    fn ends_can_move(&self, cursor: &GroupCursor, bound: Dist, run: &Range<usize>) -> bool {
        if self.member_dists.is_empty() {
            return false;
        }
        let t = bound / self.shrink;
        let (first, last) = (self.group_ends(run.start), self.group_ends(run.end - 1));
        cursor.behind(first.1, t)
            || cursor.beyond(last.0, t)
            || (run.len() == 1 && cursor.beyond(first.1, t))
    }

    /// Scans a tile's cursors ([`scan_tile`](Self::scan_tile)), hands each
    /// one's collector over to its query's accumulator and adds its work
    /// to `stats`, whose `points_skipped` starts at every member of every
    /// cursor.
    fn run_tile<Q: Dataset<Item = D::Item>>(
        &self,
        queries: &Q,
        slots: &mut [Slot],
        accumulators: &[Mutex<TopK>],
        scored: &mut [bool],
        stats: &mut GroupScanStats,
    ) {
        let Some(first) = slots.first() else {
            return;
        };
        let mut items = [queries.get(first.cursor.query); SCREEN_QUERIES];
        for (item, slot) in items.iter_mut().zip(slots.iter()) {
            *item = queries.get(slot.cursor.query);
        }
        self.scan_tile(&items[..slots.len()], slots, scored);
        for slot in slots {
            if !slot.fresh.is_empty() {
                let accumulator = &accumulators[slot.cursor.query];
                let mut shared = accumulator.lock().expect("top-k accumulator lock poisoned");
                hand_over(&mut shared, slot.seen, &mut slot.local, &mut slot.fresh);
            }
            stats.distance_evals += slot.work.evals;
            stats.points_skipped -= slot.work.scored as u64;
            stats.evals_per_cursor[slot.at] = slot.work.evals;
            stats.reranked += slot.work.reranked;
        }
    }

    /// Scores the runs of a tile's cursors — what [`enter`](Self::enter)
    /// returned for their collectors' thresholds — into their collectors.
    /// The tile walks the union of the runs a window of lane groups at a
    /// time: one screen loads each group of the window once for every
    /// cursor whose run reaches into it, against each one's threshold at the
    /// call, and each cursor then scores the groups of the window inside its
    /// own run. A cursor's run is consumed [`RECLIP_GROUPS`] groups at a
    /// time from its own start, and re-clipped between its blocks, exactly
    /// as if it were scanned alone; the window decides only which mask each
    /// group is scored under. `queries[s]` is slot `s`'s query; `scored`
    /// receives every group of the runs.
    fn scan_tile(&self, queries: &[&D::Item], slots: &mut [Slot], scored: &mut [bool]) {
        let ahead = match self.mirror.map(|mirror| &mirror.lanes) {
            Some(Lanes::Floats(_)) => SCREEN_AHEAD_GROUPS,
            _ => RECLIP_GROUPS,
        };
        // The masks of a window, one row per cursor screened, or every lane
        // kept when there is no mirror to screen.
        let mut masks = [u8::MAX; SCREEN_QUERIES * SCREEN_AHEAD_GROUPS];
        let mut lane_dists = [0.0 as Dist; LANES];
        loop {
            // The window starts at the nearest group a cursor still needs.
            let (mut start, mut reach) = (usize::MAX, 0);
            for slot in slots.iter().filter(|slot| !slot.run.is_empty()) {
                start = start.min(slot.run.start);
                reach = reach.max(slot.run.end);
            }
            if start == usize::MAX {
                return;
            }
            let window = start..reach.min(start + ahead);
            // The cursors whose runs reach into the window.
            let mut screened = [0; SCREEN_QUERIES];
            let mut rows = 0;
            for (s, slot) in slots.iter().enumerate() {
                if !slot.run.is_empty() && slot.run.start < window.end {
                    screened[rows] = s;
                    rows += 1;
                }
            }
            let screened = &screened[..rows];
            if let Some(mirror) = self.mirror {
                // A lane the screen clears is above its cursor's bound at
                // the call and bounds only fall, so the offer filter would
                // turn it away whenever it got to it: it is neither scored
                // nor offered.
                let mut tile = [queries[0]; SCREEN_QUERIES];
                let mut bounds = [0.0; SCREEN_QUERIES];
                for ((q, bound), &s) in tile.iter_mut().zip(&mut bounds).zip(screened) {
                    (*q, *bound) = (queries[s], slots[s].bound());
                }
                let keep = &mut masks[..rows * window.len()];
                mirror.screen(
                    self.metric,
                    &tile[..rows],
                    window.clone(),
                    &bounds[..rows],
                    keep,
                );
            }
            for (row, &s) in screened.iter().enumerate() {
                let keep = match self.mirror {
                    Some(_) => &masks[row * window.len()..][..window.len()],
                    None => &masks[..window.len()],
                };
                self.scan_window(
                    queries[s],
                    &mut slots[s],
                    &window,
                    keep,
                    scored,
                    &mut lane_dists,
                );
            }
        }
    }

    /// Scores the groups of `window` inside a cursor's run under their
    /// masks `keep`, block by block of the cursor's own, re-clipping
    /// between its blocks.
    fn scan_window(
        &self,
        q: &D::Item,
        slot: &mut Slot,
        window: &Range<usize>,
        keep: &[u8],
        scored: &mut [bool],
        lane_dists: &mut [Dist; LANES],
    ) {
        let mut stop = window.end.min(slot.run.end);
        while slot.run.start < stop {
            // Up to the end of the window or of the cursor's block.
            let segment = slot.run.start..stop.min(slot.block_end);
            for g in segment.clone() {
                // Every live lane is an evaluation; the kept ones are scored.
                let live = self.live(g);
                slot.work.evals += u64::from(live.count_ones());
                let kept = live & keep[g - window.start];
                if kept != 0 {
                    self.score_group(q, slot, g, kept, lane_dists);
                }
            }
            self.account(slot, segment.clone(), scored);
            slot.run.start = segment.end;
            if segment.end == slot.block_end {
                slot.next_block(self);
                stop = window.end.min(slot.run.end);
            }
        }
    }

    /// Counts the members of the lane groups `scored` as scored by the
    /// cursor in `slot`, and the groups as scored by the group scan.
    fn account(&self, slot: &mut Slot, groups: Range<usize>, scored: &mut [bool]) {
        slot.work.scored += (groups.end * LANES).min(self.members.len()) - groups.start * LANES;
        scored[groups].fill(true);
    }

    /// Scores the `kept` lanes of lane group `g` canonically for a cursor,
    /// and offers those at or under its bound to its collector.
    fn score_group(
        &self,
        q: &D::Item,
        slot: &mut Slot,
        g: usize,
        kept: u8,
        lane_dists: &mut [Dist; LANES],
    ) {
        slot.work.reranked += 1;
        self.score(q, g, kept, lane_dists);
        // No kept lane at or under the bound means none is offered (ties
        // at the k-th can still be admitted by index order, hence `<=`).
        // Past that, a lane above the bound — the k-th, or the cap below
        // it — is turned away and is not offered; a NaN lane is, and
        // `TopK` decides.
        let bound = slot.bound();
        let (mut under, mut over) = (0u8, 0u8);
        for (lane, &d) in lane_dists.iter().enumerate() {
            under |= u8::from(d <= bound) << lane;
            over |= u8::from(d > bound) << lane;
        }
        if kept & under == 0 {
            return;
        }
        // A dead lane may be padding, past the members' end.
        let mut offered = kept & !over;
        while offered != 0 {
            let lane = offered.trailing_zeros() as usize;
            offered &= offered - 1;
            let candidate = Neighbor::new(self.members[g * LANES + lane], lane_dists[lane]);
            if slot.local.push(candidate) {
                slot.fresh.push(candidate);
            }
        }
    }
}

/// Hands a cursor's private collector `local` over to the `shared`
/// accumulator it was seeded from when `shared` had made `seen` admissions;
/// `fresh` holds what `local` admitted since. If nothing got into `shared`
/// in between, `local` is `shared` plus the fresh candidates and is swapped
/// in whole; otherwise the fresh candidates are pushed into `shared`. The
/// contents are equal either way, since `TopK`'s `(dist, index)` order
/// forgets insertion order. `fresh` is left empty.
fn hand_over(shared: &mut TopK, seen: u64, local: &mut TopK, fresh: &mut Vec<Neighbor>) {
    if shared.admissions == seen {
        std::mem::swap(shared, local);
        fresh.clear();
    } else {
        for candidate in fresh.drain(..) {
            shared.push(candidate);
        }
    }
}

impl BruteForce {
    /// Scans the sub-database `X[L]` (`members`) once for a *group* of
    /// queries, merging candidates into their per-query top-k
    /// `accumulators` — the stage-2 kernel of the list-major batched RBC
    /// search (see the [module docs](self) for how).
    ///
    /// When `sorted_cut` is set, `member_dists` must hold the ascending
    /// distances of `members` to the list's representative. `mirror`, when
    /// supplied, must have been gathered from `members` with the same
    /// `skip` flags (and, if with distances, these `member_dists`); `skip`
    /// itself is what the row-major fallback reads
    /// (the exact search flags representatives, which its first stage
    /// already answered).
    ///
    /// **Private, then merged.** Each cursor takes its accumulator's lock
    /// twice: once to read the threshold its run is clipped against, to
    /// note how many candidates the accumulator has admitted and to seed a
    /// private `TopK`; once when its tile is done and the private copy
    /// admitted something. If the shared accumulator admitted nothing in
    /// between — always so for a query's only cursor in flight — the private
    /// copy *is* the merged result and the two are swapped; otherwise the
    /// candidates the private copy admitted are pushed (never the seeded
    /// entries, which the shared accumulator already holds, so nothing is
    /// duplicated). All distance arithmetic runs outside the lock, so
    /// concurrent groups sharing a query never serialise their evaluations.
    ///
    /// **Tiled.** The cursors run in tiles (see the [module docs](self)),
    /// each cursor with its own run, blocks and collector, so answers and
    /// per-cursor evaluations are those of the cursors scanned one at a
    /// time. A group names each query once; a cursor whose query is already
    /// in the tile starts the next one, after the first has handed over.
    #[allow(clippy::too_many_arguments)] // deliberately a flat kernel signature
    pub fn knn_group_in_list<Q, D, M>(
        &self,
        queries: &Q,
        db: &D,
        metric: &M,
        members: &[usize],
        member_dists: &[Dist],
        cursors: &[GroupCursor],
        shrink: f64,
        sorted_cut: bool,
        skip: Option<&[bool]>,
        mirror: Option<&ListMirror>,
        accumulators: &[Mutex<TopK>],
    ) -> GroupScanStats
    where
        Q: Dataset,
        D: Dataset<Item = Q::Item>,
        M: Metric<Q::Item>,
    {
        let _scan_span = rbc_trace::span("bf.group_scan");
        let list = ListScan::new(
            self,
            db,
            metric,
            members,
            member_dists,
            shrink,
            sorted_cut,
            skip,
            mirror,
        );
        let mut scratch = list.scratch();
        let Scratch {
            slots,
            order,
            scored,
        } = &mut scratch;
        let mut stats = GroupScanStats {
            evals_per_cursor: vec![0; cursors.len()],
            points_skipped: (members.len() * cursors.len()) as u64,
            ..GroupScanStats::default()
        };
        list.touch_summary();
        // Cursors near each other on the list's distance axis have runs
        // that overlap: tile them in that order.
        order.clear();
        order.extend(0..cursors.len());
        order.sort_by(|&a, &b| cursors[a].d_to_rep.total_cmp(&cursors[b].d_to_rep));
        let mut len = 0;
        for &at in order.iter() {
            let cursor = cursors[at];
            // A query's second cursor enters after its first has handed
            // over, as it would one cursor at a time.
            if slots[..len]
                .iter()
                .any(|slot| slot.cursor.query == cursor.query)
            {
                list.run_tile(queries, &mut slots[..len], accumulators, scored, &mut stats);
                len = 0;
            }
            let accumulator = &accumulators[cursor.query];
            let shared = accumulator.lock().expect("top-k accumulator lock poisoned");
            let run = list.enter(&cursor, shared.threshold());
            if run.is_empty() {
                continue;
            }
            if slots.len() == len {
                slots.push(Slot::new());
            }
            slots[len].seed(at, cursor, run, &shared);
            drop(shared);
            len += 1;
            if len == SCREEN_QUERIES {
                list.run_tile(queries, &mut slots[..len], accumulators, scored, &mut stats);
                len = 0;
            }
        }
        list.run_tile(queries, &mut slots[..len], accumulators, scored, &mut stats);
        stats.tile_passes = list.tile_passes(scored);
        SCRATCH.set(Some(scratch));
        if rbc_trace::enabled() {
            record_group_scan(&stats);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitive::BfConfig;
    use rbc_metric::{Euclidean, VectorSet};

    /// A deterministic pseudo-random cloud (no dependency on `rand` needed
    /// for unit tests).
    fn cloud(n: usize, dim: usize, seed: u64) -> VectorSet {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(dim);
            for _ in 0..dim {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                row.push(((state >> 33) as f32 / u32::MAX as f32) * 20.0 - 10.0);
            }
            rows.push(row);
        }
        VectorSet::from_rows(&rows)
    }

    /// Reference for the group kernel: each query's scan of the full list,
    /// done privately.
    fn private_scans(
        queries: &VectorSet,
        db: &VectorSet,
        list: &[usize],
        k: usize,
    ) -> Vec<Vec<Neighbor>> {
        let bf = BruteForce::new();
        (0..queries.len())
            .map(|qi| {
                bf.knn_single_in_list(queries.point(qi), db, list, &Euclidean, k)
                    .0
            })
            .collect()
    }

    #[test]
    fn group_scan_matches_private_scans_and_shares_tiles() {
        let db = cloud(300, 5, 30);
        let queries = cloud(12, 5, 31);
        let list: Vec<usize> = (0..300).filter(|i| i % 2 == 0).collect();
        let k = 4;
        let bf = BruteForce::with_config(BfConfig {
            db_tile: 32,
            ..BfConfig::default()
        });
        let accumulators: Vec<Mutex<TopK>> = (0..queries.len())
            .map(|_| Mutex::new(TopK::new(k)))
            .collect();
        let cursors: Vec<GroupCursor> = (0..queries.len())
            .map(|qi| GroupCursor {
                query: qi,
                d_to_rep: 0.0,
                threshold_cap: Dist::INFINITY,
            })
            .collect();
        let stats = bf.knn_group_in_list(
            &queries,
            &db,
            &Euclidean,
            &list,
            &[],
            &cursors,
            1.0,
            false,
            None,
            None,
            &accumulators,
        );
        let got: Vec<Vec<Neighbor>> = accumulators
            .into_iter()
            .map(|m| m.into_inner().unwrap().into_sorted())
            .collect();
        assert_eq!(got, private_scans(&queries, &db, &list, k));
        // Every (query, point) pair is evaluated exactly once ...
        assert_eq!(stats.distance_evals, (queries.len() * list.len()) as u64);
        assert_eq!(stats.evals_per_cursor, vec![list.len() as u64; 12]);
        // ... but the tiles are streamed once for the whole group, not once
        // per query: 150 members at db_tile=32 is 5 shared passes.
        assert_eq!(stats.tile_passes, list.len().div_ceil(32) as u64);
    }

    #[test]
    fn run_is_empty_is_the_scan_finding_nothing_to_score() {
        // Members at 0..=9 on a line around a representative at the origin
        // (radius 9), a query at 12 on the same line: the nearest member is
        // at distance exactly 3.
        let db = VectorSet::from_rows(
            &(0..10)
                .map(|i| vec![i as f32, 0.0])
                .collect::<Vec<Vec<f32>>>(),
        );
        let members: Vec<usize> = (0..10).collect();
        let member_dists: Vec<Dist> = (0..10).map(|i| i as Dist).collect();
        let queries = VectorSet::from_rows(&[[12.0f32, 0.0]]);
        let bf = BruteForce::new();
        for shrink in [1.0, 1.5] {
            for (kth, cap) in [(2.9, Dist::INFINITY), (3.0, 9.0), (9.0, 3.0), (9.0, 3.5)] {
                let cursor = GroupCursor {
                    query: 0,
                    d_to_rep: 12.0,
                    threshold_cap: cap,
                };
                let mut seeded = TopK::new(1);
                seeded.push(Neighbor::new(99, kth));
                let stats = bf.knn_group_in_list(
                    &queries,
                    &db,
                    &Euclidean,
                    &members,
                    &member_dists,
                    &[cursor],
                    shrink,
                    true,
                    None,
                    None,
                    &[Mutex::new(seeded)],
                );
                // Strict: a bound of exactly 3 still scores the member at 3
                // (it could win a tie on index); anything under 3 — or 3
                // shrunk by 1 + ε — scores nothing.
                let empty = kth.min(cap) / shrink < 3.0;
                assert_eq!(cursor.run_is_empty(9.0, kth, shrink), empty);
                assert_eq!(stats.distance_evals == 0, empty, "kth {kth} cap {cap}");
            }
        }
    }

    #[test]
    fn group_scan_sorted_cut_retires_cursors_early() {
        // One-dimensional line: members sorted by distance to the
        // representative at the origin; a query sitting at the origin with
        // a tight threshold cap must stop after the near prefix.
        let db = VectorSet::from_rows(
            &(0..100)
                .map(|i| vec![i as f32, 0.0])
                .collect::<Vec<Vec<f32>>>(),
        );
        let queries = VectorSet::from_rows(&[[0.0f32, 0.0]]);
        let members: Vec<usize> = (0..100).collect();
        let member_dists: Vec<Dist> = (0..100).map(|i| i as Dist).collect();
        let bf = BruteForce::with_config(BfConfig {
            db_tile: 10,
            ..BfConfig::default()
        });
        let accumulators = vec![Mutex::new(TopK::new(1))];
        let cursors = [GroupCursor {
            query: 0,
            d_to_rep: 0.0,
            threshold_cap: 5.0,
        }];
        let stats = bf.knn_group_in_list(
            &queries,
            &db,
            &Euclidean,
            &members,
            &member_dists,
            &cursors,
            1.0,
            true,
            None,
            None,
            &accumulators,
        );
        // The forward cut fires at d_xr > threshold; the true NN (distance
        // 0) tightens the threshold to 0 after the first evaluation, so the
        // cursor retires within the first tile and later tiles never stream.
        assert_eq!(stats.tile_passes, 1);
        assert!(stats.distance_evals < 10);
        assert!(stats.points_skipped > 90);
        let best = accumulators[0].lock().unwrap().best().unwrap();
        assert_eq!(best.index, 0);
        assert_eq!(best.dist, 0.0);
    }

    #[test]
    fn group_scan_honours_skip_flags() {
        let db = cloud(40, 3, 32);
        let queries = cloud(3, 3, 33);
        let members: Vec<usize> = (0..40).collect();
        let mut skip = vec![false; 40];
        skip[7] = true;
        skip[23] = true;
        let bf = BruteForce::new();
        let accumulators: Vec<Mutex<TopK>> = (0..3).map(|_| Mutex::new(TopK::new(40))).collect();
        let cursors: Vec<GroupCursor> = (0..3)
            .map(|qi| GroupCursor {
                query: qi,
                d_to_rep: 0.0,
                threshold_cap: Dist::INFINITY,
            })
            .collect();
        let stats = bf.knn_group_in_list(
            &queries,
            &db,
            &Euclidean,
            &members,
            &[],
            &cursors,
            1.0,
            false,
            Some(&skip),
            None,
            &accumulators,
        );
        assert_eq!(stats.distance_evals, 3 * 38);
        for acc in accumulators {
            let found: Vec<usize> = acc
                .into_inner()
                .unwrap()
                .into_sorted()
                .iter()
                .map(|n| n.index)
                .collect();
            assert!(!found.contains(&7) && !found.contains(&23));
            assert_eq!(found.len(), 38);
        }
    }

    #[test]
    fn group_scan_with_blocks_matches_unblocked_scan() {
        let db = cloud(300, 5, 42);
        let queries = cloud(8, 5, 43);
        let members: Vec<usize> = (0..300).filter(|i| i % 3 != 0).collect();
        let k = 3;
        // Skip flags as the exact search sets them (a few scattered
        // members), so some lane groups of a tile are clean and some are
        // not; 44 is not a multiple of LANES, so tiles start mid-group.
        let mut flags = vec![false; db.len()];
        for &member in members.iter().step_by(37) {
            flags[member] = true;
        }
        let flagged = members.iter().filter(|&&m| flags[m]).count();
        let cursors: Vec<GroupCursor> = (0..queries.len())
            .map(|qi| GroupCursor {
                query: qi,
                d_to_rep: 0.0,
                threshold_cap: Dist::INFINITY,
            })
            .collect();
        for db_tile in [48, 44] {
            for skip in [None, Some(flags.as_slice())] {
                let bf = BruteForce::with_config(BfConfig {
                    db_tile,
                    ..BfConfig::default()
                });
                let mirror = ListMirror::gather(&db, &members, None, skip);
                let coded = ListMirror::gather_codes(&db, &members, None, skip);
                assert!(mirror.is_some() && coded.is_some());
                let run = |mirror: Option<&ListMirror>| {
                    let accumulators: Vec<Mutex<TopK>> = (0..queries.len())
                        .map(|_| Mutex::new(TopK::new(k)))
                        .collect();
                    let stats = bf.knn_group_in_list(
                        &queries,
                        &db,
                        &Euclidean,
                        &members,
                        &[],
                        &cursors,
                        1.0,
                        false,
                        skip,
                        mirror,
                        &accumulators,
                    );
                    let answers: Vec<Vec<Neighbor>> = accumulators
                        .into_iter()
                        .map(|m| m.into_inner().unwrap().into_sorted())
                        .collect();
                    (answers, stats)
                };
                let (with_blocks, stats_blocked) = run(mirror.as_ref());
                let (with_codes, stats_coded) = run(coded.as_ref());
                let (without, stats_plain) = run(None);
                assert_eq!(with_blocks, without);
                assert_eq!(with_codes, without);
                // Cut-free scans evaluate every unflagged (query, member)
                // pair either way.
                let scanned = members.len() - skip.map_or(0, |_| flagged);
                assert_eq!(stats_plain.distance_evals, (queries.len() * scanned) as u64);
                for stats in [&stats_blocked, &stats_coded] {
                    assert_eq!(stats.distance_evals, stats_plain.distance_evals);
                    assert_eq!(stats.tile_passes, stats_plain.tile_passes);
                }
                // Both screens clear something at k = 3 of 200 members.
                assert!(stats_blocked.reranked < stats_plain.reranked);
                assert!(stats_coded.reranked < stats_plain.reranked);
            }
        }
    }

    #[test]
    fn a_coded_mirror_holds_codes_and_no_float_lanes() {
        let db = cloud(300, 5, 44);
        for n in [1usize, 7, 8, 9, 150] {
            let members: Vec<usize> = (0..n).map(|i| (i * 7) % 300).collect();
            let coded = ListMirror::gather_codes(&db, &members, None, None).expect("vectors code");
            // Codes in place of the `f32` lanes, not beside them.
            let codes = coded.codes().expect("a coded mirror has codes");
            // `dim` bytes per member, the last lane group padded out.
            assert_eq!(codes.code_bytes(), n.div_ceil(LANES) * LANES * 5);
            assert_eq!((codes.len(), codes.dim()), (n, 5));
            assert_eq!(coded.live.len(), n.div_ceil(LANES));
            assert!(codes.err().is_finite());

            let floats = ListMirror::gather(&db, &members, None, None).expect("vectors block");
            assert!(floats.codes().is_none());
            assert_eq!((floats.live, floats.summary), (coded.live, coded.summary));
        }
    }

    #[test]
    fn concurrent_groups_sharing_accumulators_merge_to_the_union_scan() {
        // Two overlapping "groups" scanning disjoint halves of the
        // database into the *same* accumulators, as the list-major
        // executor does when one query survives to several lists. The
        // merged result must equal a private scan over the union.
        let db = cloud(200, 4, 52);
        let queries = cloud(6, 4, 53);
        let first: Vec<usize> = (0..100).collect();
        let second: Vec<usize> = (100..200).collect();
        let k = 5;
        let bf = BruteForce::new();
        let accumulators: Vec<Mutex<TopK>> = (0..queries.len())
            .map(|_| Mutex::new(TopK::new(k)))
            .collect();
        let cursors: Vec<GroupCursor> = (0..queries.len())
            .map(|qi| GroupCursor {
                query: qi,
                d_to_rep: 0.0,
                threshold_cap: Dist::INFINITY,
            })
            .collect();
        std::thread::scope(|scope| {
            for members in [&first, &second] {
                scope.spawn(|| {
                    bf.knn_group_in_list(
                        &queries,
                        &db,
                        &Euclidean,
                        members,
                        &[],
                        &cursors,
                        1.0,
                        false,
                        None,
                        None,
                        &accumulators,
                    )
                });
            }
        });
        let got: Vec<Vec<Neighbor>> = accumulators
            .into_iter()
            .map(|m| m.into_inner().unwrap().into_sorted())
            .collect();
        let all: Vec<usize> = (0..200).collect();
        assert_eq!(got, private_scans(&queries, &db, &all, k));
    }

    /// One interval-scan scenario: a list of `rows` around the representative
    /// `rep`, sorted by distance to it as an ownership list is, scanned by
    /// `queries`, whose accumulators start with `seeds` points each from
    /// outside the list (as the exact search seeds representatives).
    struct Case {
        rows: Vec<Vec<f32>>,
        rep: Vec<f32>,
        queries: Vec<Vec<f32>>,
        k: usize,
        cap: Dist,
        shrink: f64,
        flagged: Vec<usize>,
        db_tile: usize,
        seeds: usize,
    }

    impl Case {
        /// `n` pseudo-random points in the unit cube scaled by ten, the
        /// representative at the origin, and one query each for: at the
        /// representative (`d_to_rep` below every member distance), far
        /// outside (above every one), and exactly on the middle member.
        fn new(n: usize, seed: u64) -> Self {
            let points = cloud(n, 3, seed);
            let rows: Vec<Vec<f32>> = points.iter().map(<[f32]>::to_vec).collect();
            let queries = vec![vec![0.0; 3], vec![40.0; 3], rows[n / 2].clone()];
            Self {
                rows,
                rep: vec![0.0; 3],
                queries,
                k: 3,
                cap: Dist::INFINITY,
                shrink: 1.0,
                flagged: Vec::new(),
                db_tile: 256,
                seeds: 0,
            }
        }

        /// Scans through both layouts and checks, for each: the answers
        /// against private scans of the unflagged members and the query's
        /// seeds; the accounting identity `evals + skipped + masked =
        /// cursors × members` (with `masked ≤ flagged` per cursor, and zero
        /// without flags); and that no cursor evaluates more than its entry
        /// run — the members neither cut rules out at the entry threshold,
        /// the smaller of `cap` and the seeded k-th distance, over `shrink`
        /// — rounded outward to lane groups.
        fn check(&self) {
            let mut order: Vec<(Dist, usize)> = self
                .rows
                .iter()
                .enumerate()
                .map(|(i, row)| (Euclidean.dist(row, &self.rep), i))
                .collect();
            order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let members: Vec<usize> = order.iter().map(|&(_, i)| i).collect();
            let member_dists: Vec<Dist> = order.iter().map(|&(d, _)| d).collect();
            // Seed `j` of query `qi` sits `0.7 (j + 1)` from it along one
            // axis, after the list's points in the database.
            let mut rows = self.rows.clone();
            for query in &self.queries {
                for j in 0..self.seeds {
                    let mut seed = query.clone();
                    seed[j % 3] += 0.7 * (j + 1) as f32;
                    rows.push(seed);
                }
            }
            let seeds_of = |qi: usize| {
                let first = self.rows.len() + qi * self.seeds;
                first..first + self.seeds
            };
            let db = VectorSet::from_rows(&rows);
            let queries = VectorSet::from_rows(&self.queries);
            let seeded = |qi: usize| {
                let mut topk = TopK::new(self.k);
                for i in seeds_of(qi) {
                    topk.push(Neighbor::new(
                        i,
                        Euclidean.dist(queries.point(qi), db.point(i)),
                    ));
                }
                topk
            };
            let mut flags = vec![false; db.len()];
            for &position in &self.flagged {
                flags[members[position]] = true;
            }
            let unflagged: Vec<usize> = members.iter().copied().filter(|&m| !flags[m]).collect();
            let cursors: Vec<GroupCursor> = (0..queries.len())
                .map(|qi| GroupCursor {
                    query: qi,
                    d_to_rep: Euclidean.dist(queries.point(qi), &self.rep),
                    threshold_cap: self.cap,
                })
                .collect();
            let entry_run: Vec<u64> = cursors
                .iter()
                .map(|c| {
                    let t = seeded(c.query).threshold().min(self.cap) / self.shrink;
                    let lo = member_dists.partition_point(|&d| c.d_to_rep - d > t);
                    let hi = member_dists.partition_point(|&d| d - c.d_to_rep <= t);
                    if lo >= hi {
                        0
                    } else {
                        (hi.div_ceil(LANES) * LANES).min(members.len()) as u64
                            - (lo / LANES * LANES) as u64
                    }
                })
                .collect();
            let bf = BruteForce::with_config(BfConfig {
                db_tile: self.db_tile,
                ..BfConfig::default()
            });
            let mirror = ListMirror::gather(&db, &members, Some(&member_dists), Some(&flags));
            let coded = ListMirror::gather_codes(&db, &members, Some(&member_dists), Some(&flags));
            assert!(mirror.is_some() && coded.is_some());
            let mut first = None;
            for mirror in [mirror.as_ref(), coded.as_ref(), None] {
                let accumulators: Vec<Mutex<TopK>> = (0..queries.len())
                    .map(|qi| Mutex::new(seeded(qi)))
                    .collect();
                let stats = bf.knn_group_in_list(
                    &queries,
                    &db,
                    &Euclidean,
                    &members,
                    &member_dists,
                    &cursors,
                    self.shrink,
                    true,
                    Some(&flags),
                    mirror,
                    &accumulators,
                );
                let got: Vec<Vec<Neighbor>> = accumulators
                    .into_iter()
                    .map(|m| m.into_inner().unwrap().into_sorted())
                    .collect();
                let want: Vec<Vec<Neighbor>> = (0..queries.len())
                    .map(|qi| {
                        let pool: Vec<usize> =
                            unflagged.iter().copied().chain(seeds_of(qi)).collect();
                        let q = VectorSet::from_rows(&[queries.point(qi)]);
                        private_scans(&q, &db, &pool, self.k).remove(0)
                    })
                    .collect();
                if self.shrink == 1.0 && self.cap == Dist::INFINITY {
                    assert_eq!(got, want);
                } else {
                    // A finite cap or a (1+ε) cut may drop members outside
                    // it; what is returned is still the best of what the
                    // cut allows, never better than the truth.
                    for (g, w) in got.iter().zip(&want) {
                        assert!(g.len() <= w.len());
                        for (a, b) in g.iter().zip(w) {
                            assert!(a.dist >= b.dist);
                        }
                        if let (Some(a), Some(b)) = (g.first(), w.first()) {
                            let reachable = b.dist <= self.cap / self.shrink;
                            assert!(!reachable || a.dist <= self.shrink * b.dist);
                        }
                    }
                }
                let pairs = (cursors.len() * members.len()) as u64;
                let masked = pairs - stats.distance_evals - stats.points_skipped;
                assert!(masked <= (cursors.len() * self.flagged.len()) as u64);
                assert_eq!(
                    stats.evals_per_cursor.iter().sum::<u64>(),
                    stats.distance_evals
                );
                for (evals, bound) in stats.evals_per_cursor.iter().zip(&entry_run) {
                    assert!(evals <= bound, "{evals} evaluations, entry run {bound}");
                }
                // Whatever the lanes are, or if there are none, the same
                // answers come from the same work.
                let work = (got, stats.evals_per_cursor, stats.points_skipped);
                assert_eq!(*first.get_or_insert_with(|| work.clone()), work);
            }
        }
    }

    #[test]
    fn interval_scan_is_exact_at_every_list_length() {
        // 127..=129 and 513 run one or more whole 16-group screens and a
        // ragged last one.
        for n in [1, 7, 8, 9, 127, 128, 129, 255, 256, 257, 513] {
            Case::new(n, 60 + n as u64).check();
            // k larger than the list: every unflagged member comes back.
            Case {
                k: n + 5,
                ..Case::new(n, 70 + n as u64)
            }
            .check();
            // Seeded accumulators: the entry threshold is finite, so both
            // cuts bite from the first group on and the runs are short.
            for k in [1, 3] {
                Case {
                    k,
                    seeds: 3,
                    ..Case::new(n, 90 + n as u64)
                }
                .check();
            }
            // Tiles of five and a half lane groups: a 16-group screen spans
            // three or four of them.
            Case {
                seeds: 3,
                db_tile: 44,
                ..Case::new(n, 100 + n as u64)
            }
            .check();
        }
    }

    #[test]
    fn interval_scan_handles_equal_distances_across_a_group_boundary() {
        // Positions 5..12 of the sorted list are one point repeated, so a
        // run of equal `member_dists` straddles the first lane-group
        // boundary; one query sits exactly on it.
        let mut case = Case::new(40, 80);
        let mut by_dist: Vec<usize> = (0..40).collect();
        by_dist.sort_by(|&a, &b| {
            Euclidean
                .dist(&case.rows[a], &case.rep)
                .total_cmp(&Euclidean.dist(&case.rows[b], &case.rep))
        });
        let twin = case.rows[by_dist[5]].clone();
        for &i in &by_dist[6..12] {
            case.rows[i] = twin.clone();
        }
        case.queries.push(twin);
        case.check();
        case.seeds = 2;
        case.k = 2;
        case.check();
    }

    #[test]
    fn interval_scan_respects_caps_shrink_and_flags() {
        // A finite cap: the far query's run is empty and it must not touch
        // the list at all.
        let capped = Case {
            cap: 3.0,
            ..Case::new(257, 81)
        };
        capped.check();
        Case {
            shrink: 1.5,
            ..Case::new(257, 82)
        }
        .check();
        Case {
            shrink: 1.5,
            cap: 6.0,
            ..Case::new(100, 83)
        }
        .check();
        // Scattered flags, then every member flagged.
        Case {
            flagged: vec![0, 7, 8, 63, 99],
            seeds: 3,
            ..Case::new(100, 84)
        }
        .check();
        Case {
            flagged: (0..41).collect(),
            ..Case::new(41, 85)
        }
        .check();
        // Tiles that are not whole lane groups.
        for db_tile in [1, 12, 44] {
            Case {
                db_tile,
                seeds: 3,
                ..Case::new(257, 86)
            }
            .check();
        }
    }

    /// Query-to-representative distances the run-search tests sweep, for a
    /// list whose member distances are `0, 0, 0, 0.5, …` up to `radius`.
    fn run_search_to_rep(radius: Dist) -> [Dist; 10] {
        [
            0.0,
            0.25,
            0.75,
            1.0,
            radius / 2.0,
            radius / 2.0 + 0.1,
            radius,
            radius + 0.3,
            radius + 100.0,
            Dist::NAN,
        ]
    }

    /// Top-k thresholds the run-search tests sweep.
    fn run_search_bounds(radius: Dist) -> [Dist; 9] {
        [
            0.0,
            0.1,
            0.25,
            0.5,
            0.75,
            3.0,
            radius,
            Dist::INFINITY,
            Dist::NAN,
        ]
    }

    #[test]
    fn summary_run_search_returns_the_member_level_range() {
        let bf = BruteForce::new();
        for n in [1usize, 7, 8, 9, 255, 256, 257] {
            // Every distance three times over, so runs of equal values
            // straddle the lane-group boundaries.
            let member_dists: Vec<Dist> = (0..n).map(|i| (i / 3) as Dist * 0.5).collect();
            let radius = member_dists[n - 1];
            let members: Vec<usize> = (0..n).collect();
            let db = cloud(n, 2, n as u64);
            let summarised = ListMirror::gather(&db, &members, Some(&member_dists), None);
            let bare = ListMirror::gather(&db, &members, None, None);
            for shrink in [1.0, 1.5] {
                let scan = |mirror| {
                    let dists = &member_dists;
                    ListScan::new(
                        &bf, &db, &Euclidean, &members, dists, shrink, true, None, mirror,
                    )
                };
                let by_summary = scan(summarised.as_ref());
                // A mirror gathered without distances, and no mirror at
                // all, both search the members themselves.
                let by_members = scan(bare.as_ref());
                assert_eq!(by_summary.summary.len(), n.div_ceil(LANES));
                assert!(by_members.summary.is_empty() && by_members.mirror.is_some());
                assert!(scan(None).summary.is_empty());

                let groups = n.div_ceil(LANES);
                for d_to_rep in run_search_to_rep(radius) {
                    for cap in [Dist::INFINITY, 0.6] {
                        let cursor = GroupCursor {
                            query: 0,
                            d_to_rep,
                            threshold_cap: cap,
                        };
                        for kth in run_search_bounds(radius) {
                            let entry = by_members.enter(&cursor, kth);
                            assert_eq!(by_summary.enter(&cursor, kth), entry);
                            // Re-clips: every window of the list, most of
                            // them starting mid-list.
                            for start in 0..groups {
                                for end in start + 1..=groups {
                                    assert_eq!(
                                        by_summary.clip(&cursor, kth.min(cap), start..end),
                                        by_members.clip(&cursor, kth.min(cap), start..end),
                                        "n {n} shrink {shrink} to_rep {d_to_rep} cap {cap} \
                                         kth {kth} window {start}..{end}"
                                    );
                                }
                            }
                        }
                    }
                }
                if n > LANES {
                    // Members at 0.5 are behind, members at 1.0 beyond, and
                    // both sit in the first group: the one candidate group
                    // holds nothing admissible.
                    let between = GroupCursor {
                        query: 0,
                        d_to_rep: 0.75,
                        threshold_cap: Dist::INFINITY,
                    };
                    assert!(by_summary.enter(&between, 0.1).is_empty());
                    assert!(!by_summary.enter(&between, 0.25 * shrink).is_empty());
                }
            }
        }
    }

    #[test]
    fn a_run_whose_end_groups_survive_the_end_test_is_clipped_to_itself() {
        let bf = BruteForce::new();
        let mut skipped = 0;
        for n in [1usize, 7, 8, 9, 255, 256, 257] {
            // The summary test's lists: every distance three times over.
            let member_dists: Vec<Dist> = (0..n).map(|i| (i / 3) as Dist * 0.5).collect();
            let radius = member_dists[n - 1];
            let members: Vec<usize> = (0..n).collect();
            let db = cloud(n, 2, n as u64);
            let summarised = ListMirror::gather(&db, &members, Some(&member_dists), None);
            for shrink in [1.0, 1.5] {
                let scan = |mirror| {
                    let dists = &member_dists;
                    ListScan::new(
                        &bf, &db, &Euclidean, &members, dists, shrink, true, None, mirror,
                    )
                };
                let (by_summary, by_members) = (scan(summarised.as_ref()), scan(None));
                let groups = n.div_ceil(LANES);
                for d_to_rep in run_search_to_rep(radius) {
                    for cap in [Dist::INFINITY, 0.6] {
                        let cursor = GroupCursor {
                            query: 0,
                            d_to_rep,
                            threshold_cap: cap,
                        };
                        for kth in run_search_bounds(radius) {
                            let bound = kth.min(cap);
                            for start in 0..groups {
                                for end in start + 1..=groups {
                                    for scan in [&by_summary, &by_members] {
                                        let window = start..end;
                                        if scan.ends_can_move(&cursor, bound, &window) {
                                            continue;
                                        }
                                        skipped += 1;
                                        assert_eq!(
                                            scan.clip(&cursor, bound, window.clone()),
                                            window,
                                            "n {n} shrink {shrink} to_rep {d_to_rep} cap {cap} \
                                             kth {kth}"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        // Most windows of these lists are left as they are.
        assert!(skipped > 100_000, "{skipped} windows passed the end test");
    }

    /// `stream` offered to a fresh `TopK::new(k)`, sorted.
    fn private_topk(k: usize, stream: &[Neighbor]) -> Vec<Neighbor> {
        let mut topk = TopK::new(k);
        for &candidate in stream {
            topk.push(candidate);
        }
        topk.into_sorted()
    }

    #[test]
    fn hand_over_swaps_an_untouched_accumulator_and_re_pushes_into_a_moved_one() {
        // k = 3: the shared accumulator is seeded with one candidate, so the
        // NaN gets in before being pushed out, and three candidates tie at
        // the final k-th distance (6.0), which index 1 wins.
        let seed = [Neighbor::new(10, 4.0)];
        let scanned = [
            Neighbor::new(5, Dist::NAN),
            Neighbor::new(3, 6.0),
            Neighbor::new(1, 6.0),
            Neighbor::new(7, 2.0),
            Neighbor::new(2, 6.0),
        ];
        // Another cursor's candidate, pushed between seed and merge or not.
        let between = Neighbor::new(8, 3.0);
        for interleaved in [false, true] {
            let mut shared = TopK::new(3);
            seed.iter().for_each(|&candidate| {
                shared.push(candidate);
            });
            let seen = shared.admissions;
            let mut local = shared.clone();
            let mut fresh = Vec::new();
            for &candidate in &scanned {
                if local.push(candidate) {
                    fresh.push(candidate);
                }
            }
            if interleaved {
                assert!(shared.push(between));
            }
            let before = shared.clone();
            hand_over(&mut shared, seen, &mut local, &mut fresh);
            assert!(fresh.is_empty());
            let mut stream = seed.to_vec();
            if interleaved {
                stream.push(between);
            }
            stream.extend(scanned);
            let want = private_topk(3, &stream);
            assert_eq!(shared.clone().into_sorted(), want);
            if interleaved {
                assert_eq!(want[..2], [Neighbor::new(7, 2.0), Neighbor::new(8, 3.0)]);
                // Re-pushed: `local` still holds its own scan.
                assert_eq!(
                    local.into_sorted(),
                    private_topk(3, &[&seed[..], &scanned].concat())
                );
            } else {
                assert_eq!(want[2], Neighbor::new(1, 6.0));
                // Swapped: `local` now holds what `shared` held.
                assert_eq!(local.into_sorted(), before.into_sorted());
            }
        }
    }

    #[test]
    fn cursor_with_an_empty_run_never_touches_the_list() {
        let db = cloud(64, 3, 87);
        let members: Vec<usize> = (0..64).collect();
        let member_dists: Vec<Dist> = (0..64).map(|i| 1.0 + i as Dist).collect();
        let queries = cloud(1, 3, 88);
        let accumulators = vec![Mutex::new(TopK::new(2))];
        let far = GroupCursor {
            query: 0,
            d_to_rep: 500.0,
            threshold_cap: 10.0,
        };
        let stats = BruteForce::new().knn_group_in_list(
            &queries,
            &db,
            &Euclidean,
            &members,
            &member_dists,
            &[far],
            1.0,
            true,
            None,
            None,
            &accumulators,
        );
        assert_eq!(stats.distance_evals, 0);
        assert_eq!(stats.tile_passes, 0);
        assert_eq!(stats.points_skipped, 64);
        assert!(accumulators[0].lock().unwrap().is_empty());
    }
}
