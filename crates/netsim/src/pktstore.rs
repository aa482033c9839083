//! Per-flow packet state: the arena store and its executable reference.
//!
//! The sender tracks every transmitted-but-unresolved sequence in one of
//! three disjoint states — *outstanding* (in flight), *sacked* (received
//! above the cumulative point), or *limbo* (SACKed then orphaned by an
//! RTO) — plus a per-recovery-episode *retx-done* mark. The original
//! implementation kept these in a `BTreeMap<u64, SentPkt>` and three
//! `BTreeSet<u64>`s; SACK processing probed them seq-by-seq, and on
//! loss-heavy scenarios those pointer-chasing probes dominated the whole
//! simulator (`run/bbr-two-flow` spent ~85% of its ACK path there).
//!
//! [`PktStore`] replaces all four containers with a single flat slot
//! arena indexed by sequence number. Sequence numbers of one flow are
//! dense — fresh data extends the top, the cumulative ACK prunes the
//! bottom — so `slot = &slots[seq - origin]` is exact, a state probe is
//! one flag load instead of a tree descent, and the SACK hole walks in
//! `process_ack`/`detect_sack_losses` become linear scans over
//! contiguous 32-byte slots.
//!
//! Invariants (checked in debug builds, relied on everywhere):
//!
//! * **Disjointness** — a slot carries at most one of `OUTSTANDING`,
//!   `SACKED`, `LIMBO`. The retx-done mark is orthogonal (it outlives the
//!   outstanding copy it was set for).
//! * **Live window** — every flagged slot has `base ≤ seq < top` where
//!   `base = cum_acked + 1`: [`PktStore::advance_cum`] clears every flag
//!   it passes, so scans never need to look below `base`. Retransmissions
//!   re-enter above `base` (the retx queue is pruned to `> cum` on every
//!   cumulative advance), and fresh data extends `top` by exactly one.
//! * **Monotone max** — `sacked_max` only needs recomputing when the
//!   sacked population empties: pruning removes from below, so a
//!   non-empty population keeps its maximum.
//! * **Epoch retx-done** — the per-episode retx-done set is cleared in
//!   O(1) by bumping `epoch`; a slot's mark counts only when its stamped
//!   epoch matches.
//!
//! Byte counts (`outstanding_bytes`, `unresolved_bytes`) are maintained
//! incrementally from per-packet lengths stored in the slots — not
//! derived as `count * mss` — so the auditor's byte-accounting identity
//! stays exact even for flows whose final segment is shorter than one
//! MSS.
//!
//! The original B-tree containers survive as `RefStore`, in this file's
//! test module and with the same method names: the executable reference
//! the arena is checked against. A seeded lockstep test drives both
//! stores through hundreds of sender-legal operations per seed and
//! compares every observable after each one. At the simulator level,
//! `tests/arena_equivalence.rs` pins the audited trace digests of a
//! loss/SACK-heavy grid and a Pareto workload (`tests/golden/arena/`),
//! recorded with both stores driving the network and asserted equal.

use simcore::units::{count_as_u64, Time};

/// A transmitted-but-unacknowledged packet, as the sender remembers it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SentPkt {
    /// When the (most recent copy of the) packet left the sender.
    pub sent_at: Time,
    /// Sender's `delivered` counter at send time (delivery-rate echo).
    pub delivered_at_send: u64,
    /// Wire length of this packet.
    pub bytes: u64,
    /// Whether this in-flight copy is a retransmission.
    pub retransmit: bool,
}

/// Empty: the store API is [`PktStore`]'s inherent methods. Kept only
/// because the separate `benchmark/` workspace still imports the name.
pub trait SeqStore {}

// ------------------------------------------------------------- arena ----

/// Slot state flags. `OUTSTANDING`/`SACKED`/`LIMBO` are mutually
/// exclusive; `RETRANSMIT` qualifies an outstanding copy; `RETX_DONE`
/// counts only when the slot's stamped epoch is current.
const OUTSTANDING: u8 = 1;
const SACKED: u8 = 2;
const LIMBO: u8 = 4;
const RETRANSMIT: u8 = 8;
const RETX_DONE: u8 = 16;

/// One tracked sequence: 32 bytes, two per cache line.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    sent_at: Time,
    delivered_at_send: u64,
    bytes: u64,
    retx_epoch: u32,
    flags: u8,
}

/// The flat arena store (see the module docs for layout and invariants).
///
/// Its operations mirror the sender's original container operations
/// one-for-one; each method names the B-tree phrase it replaces. All
/// sequence scans yield ascending order — the CCA observes losses in that
/// order, so it is part of the determinism contract.
#[derive(Debug, Default)]
pub struct PktStore {
    /// Slot `i` is sequence `origin + i`.
    slots: Vec<Slot>,
    /// Sequence number of `slots[0]`; advances only on compaction.
    origin: u64,
    /// Lowest possibly-live sequence: `cum_acked + 1`.
    base: u64,
    outstanding_count: u64,
    outstanding_bytes: u64,
    sacked_count: u64,
    sacked_bytes: u64,
    sacked_max: Option<u64>,
    limbo_bytes: u64,
    /// Current recovery episode; bumping it clears every retx-done mark.
    epoch: u32,
}

impl PktStore {
    /// One past the highest tracked sequence.
    #[inline]
    fn top(&self) -> u64 {
        self.origin + count_as_u64(self.slots.len())
    }

    #[inline]
    fn slot(&self, seq: u64) -> Option<&Slot> {
        if seq < self.origin || seq >= self.top() {
            return None;
        }
        Some(&self.slots[(seq - self.origin) as usize])
    }

    #[inline]
    fn retx_done(&self, s: &Slot) -> bool {
        s.flags & RETX_DONE != 0 && s.retx_epoch == self.epoch
    }

    /// Ensure a slot exists for `seq`, compacting the dead prefix below
    /// `base` away when it has grown to half the arena. Amortized O(1):
    /// each sequence is copied at most a constant number of times.
    // simlint: hot-root
    fn grow_for(&mut self, seq: u64) {
        let need = (seq - self.origin) as usize + 1;
        if need <= self.slots.len() {
            return;
        }
        let dead = (self.base - self.origin) as usize;
        if dead > 0 && dead >= self.slots.len() / 2 {
            self.slots.copy_within(dead.., 0);
            let live = self.slots.len() - dead;
            self.slots.truncate(live);
            self.origin = self.base;
        }
        let need = (seq - self.origin) as usize + 1;
        self.slots.resize(need, Slot::default());
    }

    /// Clear one slot's state flag, keeping counters exact. The retx-done
    /// mark survives (it is epoch-gated, not state-gated).
    #[inline]
    fn clear_state(&mut self, seq: u64) {
        let i = (seq - self.origin) as usize;
        let s = &mut self.slots[i];
        match s.flags & (OUTSTANDING | SACKED | LIMBO) {
            0 => {}
            f if f == OUTSTANDING => {
                self.outstanding_count -= 1;
                self.outstanding_bytes -= s.bytes;
            }
            f if f == SACKED => {
                self.sacked_count -= 1;
                self.sacked_bytes -= s.bytes;
            }
            _ => {
                self.limbo_bytes -= s.bytes;
            }
        }
        s.flags &= !(OUTSTANDING | SACKED | LIMBO | RETRANSMIT);
    }

    /// Track `seq` as outstanding (`outstanding.insert(seq, pkt)`).
    // simlint: hot-root
    pub fn insert(&mut self, seq: u64, pkt: SentPkt) {
        debug_assert!(seq >= self.base, "insert below the cumulative point");
        self.grow_for(seq);
        let i = (seq - self.origin) as usize;
        let s = &mut self.slots[i];
        debug_assert_eq!(
            s.flags & (OUTSTANDING | SACKED | LIMBO),
            0,
            "insert over a live state"
        );
        s.sent_at = pkt.sent_at;
        s.delivered_at_send = pkt.delivered_at_send;
        s.bytes = pkt.bytes;
        let retx = if pkt.retransmit { RETRANSMIT } else { 0 };
        s.flags = (s.flags & RETX_DONE) | OUTSTANDING | retx;
        self.outstanding_count += 1;
        self.outstanding_bytes += pkt.bytes;
    }

    /// The outstanding packet at `seq`, if any (`outstanding.get`).
    pub fn get(&self, seq: u64) -> Option<SentPkt> {
        let s = self.slot(seq)?;
        if s.flags & OUTSTANDING == 0 {
            return None;
        }
        Some(SentPkt {
            sent_at: s.sent_at,
            delivered_at_send: s.delivered_at_send,
            bytes: s.bytes,
            retransmit: s.flags & RETRANSMIT != 0,
        })
    }

    /// Stop tracking an outstanding `seq` (`outstanding.remove`).
    // simlint: hot-root
    pub fn remove(&mut self, seq: u64) -> Option<SentPkt> {
        let pkt = self.get(seq)?;
        self.clear_state(seq);
        Some(pkt)
    }

    /// Whether nothing is in flight (`outstanding.is_empty()`).
    pub fn is_outstanding_empty(&self) -> bool {
        self.outstanding_count == 0
    }

    /// Total bytes in flight (replaces `outstanding.len() * mss`).
    pub fn outstanding_bytes(&self) -> u64 {
        self.outstanding_bytes
    }

    /// Bytes SACKed or RTO-orphaned above the cumulative point
    /// (replaces `(sacked.len() + limbo.len()) * mss`).
    pub fn unresolved_bytes(&self) -> u64 {
        self.sacked_bytes + self.limbo_bytes
    }

    /// Move every outstanding sequence in `lo..=hi` to sacked (the SACK
    /// block merge loop).
    // simlint: hot-root
    pub fn sack_range(&mut self, lo: u64, hi: u64) {
        let lo = lo.max(self.base);
        if lo > hi || lo >= self.top() {
            return;
        }
        let end = hi.min(self.top() - 1);
        for seq in lo..=end {
            let i = (seq - self.origin) as usize;
            if self.slots[i].flags & OUTSTANDING != 0 {
                let bytes = self.slots[i].bytes;
                self.slots[i].flags =
                    (self.slots[i].flags & !(OUTSTANDING | RETRANSMIT)) | SACKED;
                self.outstanding_count -= 1;
                self.outstanding_bytes -= bytes;
                self.sacked_count += 1;
                self.sacked_bytes += bytes;
                self.sacked_max = Some(match self.sacked_max {
                    Some(m) => m.max(seq),
                    None => seq,
                });
            }
        }
    }

    /// Highest currently-sacked sequence (`sacked.iter().next_back()`).
    pub fn max_sacked(&self) -> Option<u64> {
        self.sacked_max
    }

    /// The cumulative ACK advanced to `new_cum`: drop every tracked
    /// state at `seq <= new_cum` (the remove loop plus both
    /// `split_off(&(new_cum + 1))` prunes).
    // simlint: hot-root
    pub fn advance_cum(&mut self, new_cum: u64) {
        if new_cum < self.base {
            return;
        }
        let end = new_cum.min(self.top().saturating_sub(1));
        for seq in self.base..=end {
            self.clear_state(seq);
        }
        self.base = new_cum + 1;
        if self.sacked_count == 0 {
            self.sacked_max = None;
        }
        debug_assert!(
            self.sacked_max.is_none_or(|m| m > new_cum),
            "pruned the sacked maximum but others remain"
        );
    }

    /// End the recovery episode (`retx_done.clear()`).
    pub fn clear_retx_done(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Collect `(seq, sent_at, bytes)` of every outstanding hole at
    /// `seq <= limit` — not yet retransmitted this episode and not
    /// itself a retransmission — in ascending order.
    // simlint: hot-root
    pub fn collect_holes(&self, limit: u64, out: &mut Vec<(u64, Time, u64)>) {
        if self.base >= self.top() {
            return;
        }
        let end = limit.min(self.top() - 1);
        for seq in self.base..=end {
            let s = &self.slots[(seq - self.origin) as usize];
            if s.flags & OUTSTANDING != 0
                && s.flags & RETRANSMIT == 0
                && !self.retx_done(s)
            {
                out.push((seq, s.sent_at, s.bytes));
            }
        }
    }

    /// Declare a hole lost: drop it from outstanding and mark it
    /// retransmitted for this episode (`outstanding.remove` +
    /// `retx_done.insert`).
    pub fn mark_hole_retx(&mut self, seq: u64) {
        debug_assert!(
            self.slot(seq).is_some_and(|s| s.flags & OUTSTANDING != 0),
            "hole is not outstanding"
        );
        self.clear_state(seq);
        let epoch = self.epoch;
        let i = (seq - self.origin) as usize;
        let s = &mut self.slots[i];
        s.flags |= RETX_DONE;
        s.retx_epoch = epoch;
    }

    /// Collect `(seq, sent_at, bytes)` of every outstanding sequence
    /// strictly below `seq`, ascending (the datagram go-front scan).
    // simlint: hot-root
    pub fn collect_below(&self, seq: u64, out: &mut Vec<(u64, Time, u64)>) {
        let end = seq.min(self.top());
        for q in self.base..end {
            let s = &self.slots[(q - self.origin) as usize];
            if s.flags & OUTSTANDING != 0 {
                out.push((q, s.sent_at, s.bytes));
            }
        }
    }

    /// Retransmission timeout: drain every outstanding sequence
    /// (ascending) into `out`, orphan the sacked set into limbo, and
    /// clear the episode's retx-done marks.
    pub fn rto_reset(&mut self, out: &mut Vec<u64>) {
        for seq in self.base..self.top() {
            let i = (seq - self.origin) as usize;
            let s = &mut self.slots[i];
            if s.flags & OUTSTANDING != 0 {
                out.push(seq);
                s.flags &= !(OUTSTANDING | RETRANSMIT);
            } else if s.flags & SACKED != 0 {
                let bytes = s.bytes;
                s.flags = (s.flags & !SACKED) | LIMBO;
                self.sacked_count -= 1;
                self.sacked_bytes -= bytes;
                self.limbo_bytes += bytes;
            }
        }
        self.outstanding_bytes = 0;
        self.outstanding_count = 0;
        self.sacked_max = None;
        debug_assert_eq!(self.sacked_count, 0);
        self.epoch = self.epoch.wrapping_add(1);
    }
}

// --------------------------------------------------------- reference ----

/// The original B-tree containers, verbatim, with [`PktStore`]'s method
/// names: the executable specification the arena is checked against.
/// Kept ordinary (`BTreeMap::range` walks, `split_off` prunes) on purpose —
/// its value is being obviously correct, not fast.
#[cfg(test)]
mod reference {
    use super::SentPkt;
    use simcore::units::Time;
    use std::collections::{BTreeMap, BTreeSet};

    #[derive(Debug, Default)]
    pub(super) struct RefStore {
        outstanding: BTreeMap<u64, SentPkt>,
        /// Sequence → wire bytes, for exact unresolved accounting.
        sacked: BTreeMap<u64, u64>,
        limbo: BTreeMap<u64, u64>,
        retx_done: BTreeSet<u64>,
        outstanding_bytes: u64,
    }

    impl RefStore {
        pub(super) fn insert(&mut self, seq: u64, pkt: SentPkt) {
            self.outstanding_bytes += pkt.bytes;
            let prev = self.outstanding.insert(seq, pkt);
            debug_assert!(prev.is_none(), "insert over a live outstanding entry");
        }

        pub(super) fn get(&self, seq: u64) -> Option<SentPkt> {
            self.outstanding.get(&seq).copied()
        }

        pub(super) fn remove(&mut self, seq: u64) -> Option<SentPkt> {
            let pkt = self.outstanding.remove(&seq)?;
            self.outstanding_bytes -= pkt.bytes;
            Some(pkt)
        }

        pub(super) fn is_outstanding_empty(&self) -> bool {
            self.outstanding.is_empty()
        }

        pub(super) fn outstanding_bytes(&self) -> u64 {
            self.outstanding_bytes
        }

        pub(super) fn unresolved_bytes(&self) -> u64 {
            self.sacked.values().sum::<u64>() + self.limbo.values().sum::<u64>()
        }

        pub(super) fn sack_range(&mut self, lo: u64, hi: u64) {
            while let Some((&seq, pkt)) = self.outstanding.range(lo..=hi).next() {
                let bytes = pkt.bytes;
                self.outstanding.remove(&seq);
                self.outstanding_bytes -= bytes;
                self.sacked.insert(seq, bytes);
            }
        }

        pub(super) fn max_sacked(&self) -> Option<u64> {
            self.sacked.keys().next_back().copied()
        }

        pub(super) fn advance_cum(&mut self, new_cum: u64) {
            let first = match self.outstanding.keys().next() {
                Some(&f) => f,
                None => new_cum + 1,
            };
            for seq in first..=new_cum {
                if let Some(pkt) = self.outstanding.remove(&seq) {
                    self.outstanding_bytes -= pkt.bytes;
                }
            }
            self.sacked = self.sacked.split_off(&(new_cum + 1));
            self.limbo = self.limbo.split_off(&(new_cum + 1));
        }

        pub(super) fn clear_retx_done(&mut self) {
            self.retx_done.clear();
        }

        pub(super) fn collect_holes(&self, limit: u64, out: &mut Vec<(u64, Time, u64)>) {
            out.extend(
                self.outstanding
                    .range(..=limit)
                    .filter(|(s, p)| !self.retx_done.contains(s) && !p.retransmit)
                    .map(|(&s, p)| (s, p.sent_at, p.bytes)),
            );
        }

        pub(super) fn mark_hole_retx(&mut self, seq: u64) {
            let pkt = self.outstanding.remove(&seq).expect("hole is outstanding");
            self.outstanding_bytes -= pkt.bytes;
            self.retx_done.insert(seq);
        }

        pub(super) fn collect_below(&self, seq: u64, out: &mut Vec<(u64, Time, u64)>) {
            out.extend(
                self.outstanding
                    .range(..seq)
                    .map(|(&s, p)| (s, p.sent_at, p.bytes)),
            );
        }

        pub(super) fn rto_reset(&mut self, out: &mut Vec<u64>) {
            out.extend(self.outstanding.keys().copied());
            self.outstanding.clear();
            self.outstanding_bytes = 0;
            self.limbo.append(&mut self.sacked);
            self.retx_done.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::RefStore;
    use super::*;
    use simcore::rng::Xoshiro256;
    use std::ops::Range;

    fn pkt(at: u64, bytes: u64, retransmit: bool) -> SentPkt {
        SentPkt {
            sent_at: Time(at),
            delivered_at_send: 0,
            bytes,
            retransmit,
        }
    }

    /// Every observable of the two stores: the scalar queries, `get` at
    /// each sequence of `window`, and both full scans.
    fn assert_same(a: &PktStore, r: &RefStore, window: Range<u64>, step: &str) {
        assert_eq!(a.is_outstanding_empty(), r.is_outstanding_empty(), "{step}: empties");
        assert_eq!(a.outstanding_bytes(), r.outstanding_bytes(), "{step}: outstanding bytes");
        assert_eq!(a.unresolved_bytes(), r.unresolved_bytes(), "{step}: unresolved bytes");
        assert_eq!(a.max_sacked(), r.max_sacked(), "{step}: max sacked");
        for seq in window {
            assert_eq!(a.get(seq), r.get(seq), "{step}: get({seq})");
        }
        let (mut ha, mut hr) = (Vec::new(), Vec::new());
        a.collect_holes(u64::MAX, &mut ha);
        r.collect_holes(u64::MAX, &mut hr);
        assert_eq!(ha, hr, "{step}: holes");
        let (mut ba, mut br) = (Vec::new(), Vec::new());
        a.collect_below(u64::MAX, &mut ba);
        r.collect_below(u64::MAX, &mut br);
        assert_eq!(ba, br, "{step}: below");
    }
    #[test]
    fn lockstep_matches_reference() {
        let mut a = PktStore::default();
        let mut r = RefStore::default();
        // A loss-heavy episode: send 0..10, SACK 4..=6, declare holes,
        // cum-advance, retransmit, RTO, recover.
        for seq in 0..10 {
            let p = pkt(100 + seq, 1500, false);
            a.insert(seq, p);
            r.insert(seq, p);
            assert_same(&a, &r, 0..64, "insert");
        }
        a.sack_range(4, 6);
        r.sack_range(4, 6);
        assert_same(&a, &r, 0..64, "sack 4..=6");
        // Holes below the SACK ceiling get declared and retransmitted.
        let mut holes = Vec::new();
        a.collect_holes(6, &mut holes);
        assert_eq!(holes.iter().map(|h| h.0).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        for &(s, _, _) in &holes {
            a.mark_hole_retx(s);
            r.mark_hole_retx(s);
        }
        assert_same(&a, &r, 0..64, "holes declared");
        // Retransmit copies re-enter; they are not holes.
        for seq in [0u64, 1, 2, 3] {
            let p = pkt(200 + seq, 1500, true);
            a.insert(seq, p);
            r.insert(seq, p);
        }
        assert_same(&a, &r, 0..64, "retransmits in flight");
        // Cumulative ACK covers 0..=6: prunes outstanding retx copies and
        // the whole sacked run.
        a.advance_cum(6);
        r.advance_cum(6);
        assert_same(&a, &r, 0..64, "cum 6");
        // New episode after clearing retx-done: old marks must not leak.
        a.clear_retx_done();
        r.clear_retx_done();
        a.sack_range(9, 9);
        r.sack_range(9, 9);
        let mut ha = Vec::new();
        a.collect_holes(9, &mut ha);
        assert_eq!(ha.iter().map(|h| h.0).collect::<Vec<_>>(), vec![7, 8]);
        assert_same(&a, &r, 0..64, "new episode");
        // RTO: outstanding drains ascending, sacked orphans into limbo.
        let mut da = Vec::new();
        let mut dr = Vec::new();
        a.rto_reset(&mut da);
        r.rto_reset(&mut dr);
        assert_eq!(da, dr);
        assert_eq!(da, vec![7, 8]);
        assert_same(&a, &r, 0..64, "after rto");
        assert_eq!(a.unresolved_bytes(), 1500, "seq 9 waits in limbo");
        // The cumulative ACK finally passes the limbo packet.
        a.advance_cum(9);
        r.advance_cum(9);
        assert_same(&a, &r, 0..64, "cum 9");
        assert_eq!(a.unresolved_bytes(), 0);
    }

    /// A uniform draw from `lo..=hi`.
    fn pick(rng: &mut Xoshiro256, lo: u64, hi: u64) -> u64 {
        lo + rng.range_u64(hi - lo + 1)
    }

    /// Seeded lockstep: drive the arena and the reference through the same
    /// operation sequence and compare every observable over the live window
    /// after each one. The draws stay inside the sender's own call patterns
    /// (the arena's `debug_assert!`s): fresh data extends the top by one,
    /// retransmissions re-enter only sequences a hole declaration or an RTO
    /// freed, cumulative ACKs never pass the top, and only outstanding
    /// sequences are declared holes. Reliable and datagram paths are mixed
    /// on purpose, so `remove` and the go-front scan meet SACKed, limbo and
    /// retransmitted neighbours too.
    #[test]
    fn seeded_lockstep_matches_reference() {
        // Effective operations, summed over every seed: fresh sends,
        // retransmissions, SACKs that moved bytes, cumulative advances,
        // holes declared, go-front losses, non-empty RTO drains, stray
        // removes that hit, and arena compactions.
        let mut hits = [0u64; 9];
        for seed in 0..1000u64 {
            let mut rng = Xoshiro256::new(seed);
            let (mut a, mut r) = (PktStore::default(), RefStore::default());
            // Next never-sent sequence, cumulative point + 1, and the
            // sender's retransmission queue.
            let (mut next, mut floor) = (0u64, 0u64);
            let mut retx: Vec<u64> = Vec::new();
            for step in 0..400u64 {
                let origin = a.origin;
                match rng.range_u64(10) {
                    0..=2 => {
                        let bytes = [1500, 1500, 700, 1][rng.range_u64(4) as usize];
                        let p = SentPkt { delivered_at_send: step, ..pkt(step, bytes, false) };
                        a.insert(next, p);
                        r.insert(next, p);
                        next += 1;
                        hits[0] += 1;
                    }
                    3 => {
                        retx.retain(|&q| q >= floor);
                        if !retx.is_empty() {
                            let q = retx.remove(0);
                            a.insert(q, pkt(step, 1500, true));
                            r.insert(q, pkt(step, 1500, true));
                            hits[1] += 1;
                        }
                    }
                    4 => {
                        // A SACK block, possibly reaching below the
                        // cumulative point or past the top.
                        let lo = pick(&mut rng, floor.saturating_sub(2), next + 1);
                        let hi = lo + rng.range_u64(8);
                        let before = r.unresolved_bytes();
                        a.sack_range(lo, hi);
                        r.sack_range(lo, hi);
                        hits[2] += u64::from(r.unresolved_bytes() != before);
                    }
                    5 if next > 0 => {
                        // The current cumulative point is a no-op advance.
                        let cum = pick(&mut rng, floor.saturating_sub(1), next - 1);
                        a.advance_cum(cum);
                        r.advance_cum(cum);
                        hits[3] += u64::from(cum >= floor);
                        floor = floor.max(cum + 1);
                    }
                    6 if rng.range_u64(4) == 0 => {
                        a.clear_retx_done();
                        r.clear_retx_done();
                    }
                    6 => {
                        let limit = pick(&mut rng, floor.saturating_sub(1), next);
                        let (mut ha, mut hr) = (Vec::new(), Vec::new());
                        a.collect_holes(limit, &mut ha);
                        r.collect_holes(limit, &mut hr);
                        assert_eq!(ha, hr, "seed {seed} step {step}: holes to {limit}");
                        for &(q, _, _) in &ha {
                            a.mark_hole_retx(q);
                            r.mark_hole_retx(q);
                            retx.push(q);
                        }
                        hits[4] += count_as_u64(ha.len());
                    }
                    7 => {
                        // Datagram ACK: everything outstanding below the
                        // acknowledged packet is lost, then the floor moves.
                        let q = pick(&mut rng, floor.saturating_sub(1), next);
                        let got = a.remove(q);
                        assert_eq!(got, r.remove(q), "seed {seed} step {step}: remove({q})");
                        if got.is_some() {
                            let (mut ba, mut br) = (Vec::new(), Vec::new());
                            a.collect_below(q, &mut ba);
                            r.collect_below(q, &mut br);
                            assert_eq!(ba, br, "seed {seed} step {step}: below {q}");
                            for &(l, _, _) in &ba {
                                assert_eq!(a.remove(l), r.remove(l), "seed {seed} step {step}");
                            }
                            a.advance_cum(q);
                            r.advance_cum(q);
                            floor = floor.max(q + 1);
                            hits[5] += count_as_u64(ba.len());
                        }
                    }
                    8 => {
                        let (mut da, mut dr) = (Vec::new(), Vec::new());
                        a.rto_reset(&mut da);
                        r.rto_reset(&mut dr);
                        assert_eq!(da, dr, "seed {seed} step {step}: rto drain");
                        hits[6] += u64::from(!da.is_empty());
                        for q in da {
                            if !retx.contains(&q) {
                                retx.push(q);
                            }
                        }
                    }
                    _ => {
                        // A stray query or removal anywhere near the window.
                        let q = pick(&mut rng, floor.saturating_sub(2), next + 1);
                        let (mut ba, mut br) = (Vec::new(), Vec::new());
                        a.collect_below(q, &mut ba);
                        r.collect_below(q, &mut br);
                        assert_eq!(ba, br, "seed {seed} step {step}: below {q}");
                        let got = a.remove(q);
                        assert_eq!(got, r.remove(q), "seed {seed} step {step}: remove({q})");
                        hits[7] += u64::from(got.is_some());
                    }
                }
                hits[8] += u64::from(a.origin != origin);
                let window = floor.saturating_sub(2)..next + 2;
                assert_same(&a, &r, window, &format!("seed {seed} step {step}"));
            }
        }
        assert!(hits.iter().all(|&h| h >= 100), "an operation was barely exercised: {hits:?}");
    }

    #[test]
    fn per_packet_bytes_are_exact() {
        // A final segment shorter than one MSS must be accounted at its
        // true length, not rounded to the MSS.
        let mut a = PktStore::default();
        a.insert(0, pkt(1, 1500, false));
        a.insert(1, pkt(2, 700, false));
        assert_eq!(a.outstanding_bytes(), 2200);
        a.sack_range(1, 1);
        assert_eq!(a.outstanding_bytes(), 1500);
        assert_eq!(a.unresolved_bytes(), 700);
        a.advance_cum(1);
        assert_eq!(a.outstanding_bytes(), 0);
        assert_eq!(a.unresolved_bytes(), 0);
    }

    #[test]
    fn compaction_preserves_live_state() {
        let mut a = PktStore::default();
        let mut r = RefStore::default();
        // Long sliding window: cum advances chase the sender, forcing
        // several compactions; state above the cum point must survive.
        let mut next = 0u64;
        for round in 0..200u64 {
            for _ in 0..8 {
                let p = pkt(1000 + next, 1500, false);
                a.insert(next, p);
                r.insert(next, p);
                next += 1;
            }
            let cum = round * 8 + 3;
            a.sack_range(cum + 2, cum + 3);
            r.sack_range(cum + 2, cum + 3);
            a.advance_cum(cum);
            r.advance_cum(cum);
            assert_same(&a, &r, 0..next + 2, "sliding window");
        }
        // The arena stayed bounded by the live window, not total seqs.
        assert!(a.slots.len() < 128, "arena grew unbounded: {}", a.slots.len());
    }

    #[test]
    fn get_out_of_range_is_none() {
        let mut a = PktStore::default();
        a.insert(0, pkt(1, 1500, false));
        a.advance_cum(0);
        assert_eq!(a.get(0), None, "pruned seq");
        assert_eq!(a.get(99), None, "never-sent seq");
    }
}
