//! Bounded lock-free SPSC rings carrying quantized delta packets.
//!
//! Each pair of sharded-backend workers is connected by one
//! [`DeltaRing`] per direction: the producer pushes packets (an 8-bit
//! payload plus one `f32` scale), the consumer pops them, and neither
//! ever blocks — a full ring rejects the push and the sender carries the
//! delta forward in its error-feedback accumulator instead.
//!
//! The implementation is the classic Lamport queue in 100% safe Rust:
//! `head`/`tail` are monotonically increasing [`AtomicUsize`] cursors
//! (slot = cursor mod capacity) and the payload is itself atomic, 8 bytes
//! to an [`AtomicU64`] cell in little-endian order, so even a misuse of
//! the single-producer/single-consumer contract is a logic bug, never
//! undefined behavior. The producer publishes a slot with a `Release`
//! store of `tail`; the consumer acquires it by loading `tail` with
//! `Acquire`, which makes the plain relaxed payload accesses in between
//! well-ordered.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

use buckwild_kernels::cells::{load_cells, store_cells};

struct Slot {
    scale: AtomicU32,
    /// `width` bytes, 8 to a cell; the last cell's unused bytes are zero.
    payload: Vec<AtomicU64>,
}

/// A bounded single-producer single-consumer ring of delta packets.
///
/// One thread may call [`DeltaRing::push`] / [`DeltaRing::can_push`]
/// (the producer) while another calls [`DeltaRing::pop_into`] (the
/// consumer); any other concurrent use loses packets but stays safe.
///
/// # Example
///
/// ```
/// use buckwild::ring::DeltaRing;
///
/// let ring = DeltaRing::new(2, 3);
/// assert!(ring.push(0.5, &[1, -2, 3]));
/// let mut out = [0i8; 3];
/// assert_eq!(ring.pop_into(&mut out), Some(0.5));
/// assert_eq!(out, [1, -2, 3]);
/// assert_eq!(ring.pop_into(&mut out), None);
/// ```
pub struct DeltaRing {
    slots: Vec<Slot>,
    /// Payload bytes per packet.
    width: usize,
    /// Consumer cursor: next slot to pop. Only the consumer advances it.
    head: AtomicUsize,
    /// Producer cursor: next slot to fill. Only the producer advances it.
    tail: AtomicUsize,
}

impl std::fmt::Debug for DeltaRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaRing")
            .field("capacity", &self.capacity())
            .field("width", &self.width())
            .field("len", &self.len())
            .finish()
    }
}

impl DeltaRing {
    /// Creates a ring of `capacity` slots, each holding a `width`-element
    /// `i8` payload plus its `f32` scale.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize, width: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        let slots = (0..capacity)
            .map(|_| Slot {
                scale: AtomicU32::new(0),
                payload: (0..width.div_ceil(8)).map(|_| AtomicU64::new(0)).collect(),
            })
            .collect();
        DeltaRing {
            slots,
            width,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Number of packet slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Payload elements per packet.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Packets currently queued (exact from either endpoint's thread; a
    /// fuzzy snapshot elsewhere).
    #[must_use]
    pub fn len(&self) -> usize {
        self.tail
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.load(Ordering::Acquire))
    }

    /// True if no packets are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the producer's next [`DeltaRing::push`] will succeed.
    ///
    /// Only meaningful on the producer thread, where it is *stable*: the
    /// consumer can only make more room, never less.
    #[must_use]
    pub fn can_push(&self) -> bool {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Relaxed);
        tail.wrapping_sub(head) < self.capacity()
    }

    /// Pushes a packet; returns `false` (dropping nothing) if the ring is
    /// full. Producer-side only.
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != width()`.
    pub fn push(&self, scale: f32, q: &[i8]) -> bool {
        assert_eq!(q.len(), self.width(), "payload width mismatch");
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Relaxed);
        if tail.wrapping_sub(head) == self.capacity() {
            return false;
        }
        let slot = &self.slots[tail % self.capacity()];
        store_cells(&slot.payload, q);
        slot.scale.store(scale.to_bits(), Ordering::Relaxed);
        // Publish: everything written above happens-before a consumer
        // that observes the new tail.
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        true
    }

    /// Pops the oldest packet into `out`, returning its scale, or `None`
    /// if the ring is empty. Consumer-side only.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != width()`.
    pub fn pop_into(&self, out: &mut [i8]) -> Option<f32> {
        assert_eq!(out.len(), self.width(), "payload width mismatch");
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Relaxed);
        if head == tail {
            return None;
        }
        let slot = &self.slots[head % self.capacity()];
        load_cells(&slot.payload, out);
        let scale = f32::from_bits(slot.scale.load(Ordering::Relaxed));
        // Release: the producer may reuse the slot once it sees the new
        // head, after our payload reads above.
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(scale)
    }

    /// Discards all queued packets (used on checkpoint rollback, when the
    /// ring contents describe a timeline that no longer exists). Safe
    /// from the consumer side, or from the driver while workers are
    /// joined.
    pub fn clear(&self) {
        let tail = self.tail.load(Ordering::Acquire);
        self.head.store(tail, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_round_trip() {
        let ring = DeltaRing::new(4, 5);
        assert!(ring.is_empty());
        assert!(ring.push(0.25, &[1, 2, 3, 4, 5]));
        assert_eq!(ring.len(), 1);
        let mut out = [0i8; 5];
        assert_eq!(ring.pop_into(&mut out), Some(0.25));
        assert_eq!(out, [1, 2, 3, 4, 5]);
        assert!(ring.is_empty());
        assert_eq!(ring.pop_into(&mut out), None);
    }

    #[test]
    fn fills_up_and_rejects_then_recovers() {
        let ring = DeltaRing::new(2, 1);
        assert!(ring.can_push());
        assert!(ring.push(1.0, &[1]));
        assert!(ring.push(2.0, &[2]));
        assert!(!ring.can_push());
        assert!(!ring.push(3.0, &[3]), "full ring rejects");
        let mut out = [0i8];
        assert_eq!(ring.pop_into(&mut out), Some(1.0));
        assert_eq!(out, [1], "FIFO order preserved");
        assert!(ring.can_push());
        assert!(ring.push(3.0, &[3]));
        assert_eq!(ring.pop_into(&mut out), Some(2.0));
        assert_eq!(ring.pop_into(&mut out), Some(3.0));
        assert_eq!(out, [3]);
    }

    #[test]
    fn capacity_one_alternates() {
        let ring = DeltaRing::new(1, 2);
        let mut out = [0i8; 2];
        for round in 0..10 {
            assert!(ring.push(round as f32, &[round, -round]));
            assert!(!ring.push(99.0, &[0, 0]));
            assert_eq!(ring.pop_into(&mut out), Some(round as f32));
            assert_eq!(out, [round, -round]);
        }
    }

    #[test]
    fn wraparound_many_times_keeps_fifo() {
        let ring = DeltaRing::new(3, 1);
        let mut out = [0i8];
        let mut next_pop = 0i32;
        for i in 0..100i32 {
            assert!(ring.push(i as f32, &[(i % 127) as i8]));
            if ring.len() == 3 {
                // Keep a standing backlog that forces the cursors through
                // many wraps while staying within capacity.
                assert_eq!(ring.pop_into(&mut out), Some(next_pop as f32));
                assert_eq!(out[0], (next_pop % 127) as i8);
                next_pop += 1;
            }
        }
        while let Some(scale) = ring.pop_into(&mut out) {
            assert_eq!(scale, next_pop as f32);
            next_pop += 1;
        }
        assert_eq!(next_pop, 100, "every packet came out exactly once");
    }

    #[test]
    fn payloads_round_trip_at_every_width_through_wraparound() {
        // Widths around the 8-byte cell: one cell, a partial cell, exactly
        // one, one past, and a 2 KiB packet plus one byte.
        for width in [1usize, 7, 8, 9, 2049] {
            let ring = DeltaRing::new(2, width);
            let packet = |p: usize| -> Vec<i8> {
                (0..width).map(|i| (i * 31 + p * 17) as u8 as i8).collect()
            };
            let mut out = vec![0i8; width];
            let mut popped = 0usize;
            for p in 0..7 {
                assert!(ring.push(p as f32, &packet(p)), "width {width} packet {p}");
                if ring.len() == 2 {
                    assert_eq!(ring.pop_into(&mut out), Some(popped as f32));
                    assert_eq!(out, packet(popped), "width {width} packet {popped}");
                    popped += 1;
                }
            }
            while let Some(scale) = ring.pop_into(&mut out) {
                assert_eq!(scale, popped as f32);
                assert_eq!(out, packet(popped), "width {width} packet {popped}");
                popped += 1;
            }
            assert_eq!(popped, 7, "width {width}");
        }
    }

    #[test]
    fn clear_discards_backlog() {
        let ring = DeltaRing::new(4, 1);
        ring.push(1.0, &[1]);
        ring.push(2.0, &[2]);
        ring.clear();
        assert!(ring.is_empty());
        let mut out = [0i8];
        assert_eq!(ring.pop_into(&mut out), None);
        // Still usable after the reset.
        assert!(ring.push(3.0, &[3]));
        assert_eq!(ring.pop_into(&mut out), Some(3.0));
    }

    #[test]
    fn zero_width_packets_are_legal() {
        let ring = DeltaRing::new(2, 0);
        assert!(ring.push(7.0, &[]));
        assert_eq!(ring.pop_into(&mut []), Some(7.0));
    }

    #[test]
    fn spsc_across_real_threads_delivers_everything_in_order() {
        let ring = DeltaRing::new(8, 4);
        let total = 5_000u32;
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut sent = 0u32;
                while sent < total {
                    let b = (sent % 126) as i8;
                    if ring.push(sent as f32, &[b, b + 1, -b, 0]) {
                        sent += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
            s.spawn(|| {
                let mut out = [0i8; 4];
                let mut expect = 0u32;
                while expect < total {
                    match ring.pop_into(&mut out) {
                        Some(scale) => {
                            assert_eq!(scale, expect as f32);
                            let b = (expect % 126) as i8;
                            assert_eq!(out, [b, b + 1, -b, 0]);
                            expect += 1;
                        }
                        None => std::thread::yield_now(),
                    }
                }
            });
        });
        assert!(ring.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = DeltaRing::new(0, 4);
    }
}
