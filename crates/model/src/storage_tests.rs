//! Direct unit tests of the storage subsystem's transition rules
//! (the §5 preconditions, tested without the thread layer).

use crate::storage::{StorageState, StorageTransition};
use crate::types::{BarrierEv, BarrierId, Write, WriteId};
use ppc_bits::Bv;
use ppc_idl::BarrierKind;

fn w(id: u32, tid: usize, addr: u64, size: usize, val: u64) -> Write {
    Write {
        id: WriteId(id),
        tid,
        ioid: Some((tid, id as usize)),
        addr,
        size,
        value: Bv::from_u64(val, size * 8),
    }
}

fn init_write(id: u32, addr: u64, size: usize, val: u64) -> Write {
    Write {
        id: WriteId(id),
        tid: crate::types::INIT_TID,
        ioid: None,
        addr,
        size,
        value: Bv::from_u64(val, size * 8),
    }
}

fn fresh(threads: usize) -> StorageState {
    StorageState::new(threads, vec![init_write(0, 0x100, 8, 0)])
}

#[test]
fn initial_writes_visible_everywhere() {
    let st = fresh(3);
    for t in 0..3 {
        let (v, srcs) = st.read(t, 0x100, 4);
        assert_eq!(v.to_u64(), Some(0));
        assert_eq!(srcs, vec![WriteId(0); 4]);
    }
}

#[test]
fn accept_write_orders_after_propagated() {
    let mut st = fresh(2);
    st.accept_write(w(1, 0, 0x100, 4, 7));
    // Coherence: initial write → new write.
    assert!(st.coh_before(WriteId(0), WriteId(1)));
    assert!(!st.coh_before(WriteId(1), WriteId(0)));
    // Own thread sees it; the other does not yet.
    assert_eq!(st.read(0, 0x100, 4).0.to_u64(), Some(7));
    assert_eq!(st.read(1, 0x100, 4).0.to_u64(), Some(0));
}

#[test]
fn propagate_write_makes_it_visible() {
    let mut st = fresh(2);
    st.accept_write(w(1, 0, 0x100, 4, 7));
    assert!(st.can_propagate_write(WriteId(1), 1));
    st.propagate_write(WriteId(1), 1);
    assert_eq!(st.read(1, 0x100, 4).0.to_u64(), Some(7));
    // Not propagatable twice.
    assert!(!st.can_propagate_write(WriteId(1), 1));
}

#[test]
fn coherence_blocks_stale_propagation() {
    let mut st = fresh(3);
    st.accept_write(w(1, 0, 0x100, 4, 1));
    st.accept_write(w(2, 1, 0x100, 4, 2));
    // Propagate w1 to thread 2, then commit w2 after w1 by propagating
    // it there too (it becomes coherence-after w1).
    st.propagate_write(WriteId(1), 2);
    st.propagate_write(WriteId(2), 2);
    assert!(st.coh_before(WriteId(1), WriteId(2)));
    // Now w1 must not be propagatable to thread 1 (which has the
    // coherence-later w2): that would deliver an older write after a
    // newer one.
    assert!(!st.can_propagate_write(WriteId(1), 1));
    // But w2 can still reach thread 0 (w1 there is coherence-before).
    assert!(st.can_propagate_write(WriteId(2), 0));
}

#[test]
fn coherence_is_transitively_closed_and_acyclic() {
    let mut st = fresh(1);
    st.accept_write(w(1, 0, 0x100, 4, 1));
    st.accept_write(w(2, 0, 0x100, 4, 2));
    st.accept_write(w(3, 0, 0x100, 4, 3));
    // Accept order on one thread gives 1→2→3 and closure 1→3.
    assert!(st.coh_before(WriteId(1), WriteId(3)));
    // A cycle-forming edge is refused.
    assert!(!st.add_coherence(WriteId(3), WriteId(1)));
    // Re-adding an existing edge is fine.
    assert!(st.add_coherence(WriteId(1), WriteId(3)));
}

#[test]
fn barrier_gates_own_thread_writes() {
    let mut st = fresh(2);
    st.accept_write(w(1, 0, 0x100, 4, 1));
    st.accept_barrier(BarrierEv {
        id: BarrierId(0),
        tid: 0,
        ioid: (0, 1),
        kind: BarrierKind::Sync,
    });
    st.accept_write(w(2, 0, 0x104, 4, 2));
    // w2 is behind the barrier: not propagatable until the barrier is.
    assert!(!st.can_propagate_write(WriteId(2), 1));
    // The barrier needs its Group A (w1) at thread 1 first.
    assert!(!st.can_propagate_barrier(BarrierId(0), 1));
    st.propagate_write(WriteId(1), 1);
    assert!(st.can_propagate_barrier(BarrierId(0), 1));
    st.propagate_barrier(BarrierId(0), 1);
    assert!(st.can_propagate_write(WriteId(2), 1));
}

/// Barrier ids are fresh per committed instance; a second acceptance of
/// one would silently replace the first in the barrier map.
#[test]
#[should_panic(expected = "barrier accepted twice")]
fn accept_barrier_refuses_a_duplicate_id() {
    let mut st = fresh(2);
    let b = BarrierEv {
        id: BarrierId(0),
        tid: 0,
        ioid: (0, 1),
        kind: BarrierKind::Lwsync,
    };
    st.accept_barrier(b.clone());
    st.accept_barrier(b);
}

#[test]
fn sync_acknowledged_only_when_everywhere() {
    let mut st = fresh(3);
    st.accept_barrier(BarrierEv {
        id: BarrierId(0),
        tid: 0,
        ioid: (0, 0),
        kind: BarrierKind::Sync,
    });
    assert!(!st.can_acknowledge_sync(BarrierId(0)));
    st.propagate_barrier(BarrierId(0), 1);
    assert!(!st.can_acknowledge_sync(BarrierId(0)));
    st.propagate_barrier(BarrierId(0), 2);
    assert!(st.can_acknowledge_sync(BarrierId(0)));
    st.acknowledge_sync(BarrierId(0));
    assert!(st.unacknowledged_sync_requests.is_empty());
}

#[test]
fn lwsync_needs_no_acknowledgement() {
    let mut st = fresh(2);
    st.accept_barrier(BarrierEv {
        id: BarrierId(0),
        tid: 0,
        ioid: (0, 0),
        kind: BarrierKind::Lwsync,
    });
    assert!(st.unacknowledged_sync_requests.is_empty());
}

#[test]
fn mixed_size_read_assembles_per_byte() {
    let mut st = fresh(2);
    // A 1-byte write into the middle of the initial doubleword.
    st.accept_write(w(1, 0, 0x102, 1, 0xAB));
    let (v, srcs) = st.read(0, 0x100, 4);
    // Big-endian bytes [00, 00, AB, 00].
    assert_eq!(v.to_u64(), Some(0x0000_AB00));
    assert_eq!(srcs[0], WriteId(0));
    assert_eq!(srcs[2], WriteId(1));
    // Overlap is detected for coherence purposes.
    assert!(st.coh_before(WriteId(0), WriteId(1)));
}

#[test]
fn overlapping_writes_with_distinct_footprints_are_coherence_related() {
    let mut st = fresh(2);
    st.accept_write(w(1, 0, 0x100, 8, 1));
    st.accept_write(w(2, 0, 0x104, 4, 2));
    // Distinct footprints, overlapping: §5's mixed-size coherence.
    assert!(st.coh_before(WriteId(1), WriteId(2)));
    let pairs = st.unrelated_overlapping_pairs();
    assert!(pairs.is_empty(), "all overlapping pairs are now related");
}

#[test]
fn enumerate_lists_exactly_the_enabled_transitions() {
    let mut st = fresh(2);
    st.accept_write(w(1, 0, 0x100, 4, 7));
    let ts = st.enumerate(false);
    assert_eq!(
        ts,
        vec![StorageTransition::PropagateWrite {
            write: WriteId(1),
            to: 1
        }]
    );
    // With commitments enabled and no unrelated pairs, same answer.
    assert_eq!(st.enumerate(true), ts);
}

#[test]
fn final_byte_value_respects_order() {
    let mut st = fresh(1);
    st.accept_write(w(1, 0, 0x100, 4, 7));
    let order = vec![WriteId(0), WriteId(1)];
    assert_eq!(
        st.final_byte_value(&order, 0x103).and_then(|b| b.to_u64()),
        Some(7)
    );
    let order = vec![WriteId(1), WriteId(0)];
    assert_eq!(
        st.final_byte_value(&order, 0x103).and_then(|b| b.to_u64()),
        Some(0)
    );
}
