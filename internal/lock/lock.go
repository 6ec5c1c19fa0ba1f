// Package lock implements the server's lock table (§2.1, §3.2): the floor
// control that guarantees actions occur serially within each group of
// coupled objects.
//
// Locking is non-blocking by design — "Actions on locked objects are
// disabled" rather than queued — so the API is try/fail, never wait.
package lock

import (
	"sort"
	"strconv"
	"sync"

	"cosoft/internal/couple"
	"cosoft/internal/obs"
)

// Owner identifies the holder of a lock: the instance processing an event
// and a sequence number distinguishing its events.
type Owner struct {
	Instance couple.InstanceID
	Seq      uint64
}

// Table is the lock table. The zero value is not usable; call NewTable.
type Table struct {
	mu   sync.Mutex
	held map[couple.ObjectRef]Owner

	// Metric handles (nil-safe; see Instrument).
	mAttempts *obs.Counter
	mFailures *obs.Counter
	mUndone   *obs.Counter

	// tracer records one "lock.acquire" span per traced group acquisition
	// (nil disables; see TraceWith).
	tracer *obs.Tracer
}

// NewTable returns an empty lock table.
func NewTable() *Table {
	return &Table{held: make(map[couple.ObjectRef]Owner)}
}

// Instrument attaches metric handles for group-locking behaviour: attempts
// counts TryLockGroup calls, failures counts group acquisitions lost to
// contention, and undone counts locks rolled back by the paper's
// undo-locking ("on the first failure all locks acquired so far are
// undone"). Nil handles (the obs.Disabled sink) keep the table metric-free.
// Call before the table is shared between goroutines.
func (t *Table) Instrument(attempts, failures, undone *obs.Counter) {
	t.mAttempts = attempts
	t.mFailures = failures
	t.mUndone = undone
}

// TraceWith attaches a causal tracer: each TryLockGroupCtx call with a valid
// parent context records a "lock.acquire" span covering the table mutex wait
// plus the probe, with the outcome in the note. Call before the table is
// shared between goroutines.
func (t *Table) TraceWith(tr *obs.Tracer) { t.tracer = tr }

// TryLockGroupCtx is TryLockGroup with causal tracing: the acquisition is
// recorded as a child span of parent. Without a tracer or trace context it
// is exactly TryLockGroup.
func (t *Table) TryLockGroupCtx(parent obs.TraceContext, refs []couple.ObjectRef, owner Owner) (bool, int) {
	sp := t.tracer.StartSpan(parent, "lock.acquire", string(owner.Instance))
	ok, attempted := t.TryLockGroup(refs, owner)
	t.endAcquireSpan(sp, ok, attempted, len(refs))
	return ok, attempted
}

// TryLockGroupOrderedCtx is TryLockGroupOrdered with causal tracing.
func (t *Table) TryLockGroupOrderedCtx(parent obs.TraceContext, refs []couple.ObjectRef, owner Owner) (bool, int) {
	sp := t.tracer.StartSpan(parent, "lock.acquire", string(owner.Instance))
	ok, attempted := t.TryLockGroupOrdered(refs, owner)
	t.endAcquireSpan(sp, ok, attempted, len(refs))
	return ok, attempted
}

func (t *Table) endAcquireSpan(sp obs.SpanHandle, ok bool, attempted, group int) {
	if !sp.Active() {
		return
	}
	outcome := "granted n="
	if !ok {
		outcome = "denied after="
	}
	sp.EndNote(outcome + strconv.Itoa(attempted) + "/" + strconv.Itoa(group))
}

// TryLock attempts to lock one object for owner. It succeeds when the object
// is free or already held by the same owner (re-entrant within one event).
func (t *Table) TryLock(ref couple.ObjectRef, owner Owner) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tryLockLocked(ref, owner)
}

func (t *Table) tryLockLocked(ref couple.ObjectRef, owner Owner) bool {
	if cur, ok := t.held[ref]; ok {
		return cur == owner
	}
	t.held[ref] = owner
	return true
}

// Unlock releases one object if held by owner, reporting whether it did.
func (t *Table) Unlock(ref couple.ObjectRef, owner Owner) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.held[ref]; ok && cur == owner {
		delete(t.held, ref)
		return true
	}
	return false
}

// TryLockGroup locks all refs for owner, or none. This is the paper's
// published algorithm (§3.2): objects are attempted *in the given order*;
// on the first failure all locks acquired so far are undone ("undo locking")
// and the call reports failure together with how many objects were locked
// before the conflict (useful for instrumentation).
func (t *Table) TryLockGroup(refs []couple.ObjectRef, owner Owner) (ok bool, attempted int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mAttempts.Inc()
	var acquired []couple.ObjectRef
	for _, ref := range refs {
		if cur, held := t.held[ref]; held && cur != owner {
			for _, a := range acquired {
				delete(t.held, a)
			}
			t.mFailures.Inc()
			t.mUndone.Add(uint64(len(acquired)))
			return false, len(acquired)
		}
		if _, held := t.held[ref]; !held {
			t.held[ref] = owner
			acquired = append(acquired, ref)
		}
	}
	return true, len(acquired)
}

// TryLockGroupOrdered is the ablation variant: it sorts the refs into the
// global total order before attempting, so two competing groups always probe
// their shared prefix in the same order. Under the server's serialized state
// loop both variants are atomic; the ordered variant exists to quantify the
// ordering cost and to stay safe if locking were ever performed
// incrementally.
func (t *Table) TryLockGroupOrdered(refs []couple.ObjectRef, owner Owner) (ok bool, attempted int) {
	sorted := make([]couple.ObjectRef, len(refs))
	copy(sorted, refs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	return t.TryLockGroup(sorted, owner)
}

// UnlockGroup releases every ref held by owner in refs, returning the count
// released.
func (t *Table) UnlockGroup(refs []couple.ObjectRef, owner Owner) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, ref := range refs {
		if cur, ok := t.held[ref]; ok && cur == owner {
			delete(t.held, ref)
			n++
		}
	}
	return n
}

// ReleaseOwner releases every lock held by owner (used when an instance
// disconnects mid-event), returning the released refs in deterministic
// order.
func (t *Table) ReleaseOwner(owner Owner) []couple.ObjectRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []couple.ObjectRef
	for ref, cur := range t.held {
		if cur == owner {
			delete(t.held, ref)
			out = append(out, ref)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// ReleaseInstance releases every lock whose owner belongs to the instance,
// regardless of event sequence number.
func (t *Table) ReleaseInstance(id couple.InstanceID) []couple.ObjectRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []couple.ObjectRef
	for ref, cur := range t.held {
		if cur.Instance == id {
			delete(t.held, ref)
			out = append(out, ref)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// HeldBy returns the current owner of ref, if locked.
func (t *Table) HeldBy(ref couple.ObjectRef) (Owner, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	o, ok := t.held[ref]
	return o, ok
}

// Len returns the number of currently held locks.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.held)
}
