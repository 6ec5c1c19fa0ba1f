package server

// Upgrade and fuzz coverage for the snapshot decoder. The server once ran N
// state shards and wrote their layout into every snapshot: N interleaved
// event sequences (shard i allocated the IDs i+1, i+1+N, …) and route
// overrides. The single-loop server still restores that layout, and its
// logs carry event IDs that interleave the same way.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cosoft/internal/attr"
	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/hist"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

var (
	upA = couple.ObjectRef{Instance: "app-1", Path: "/x"}
	upB = couple.ObjectRef{Instance: "app-2", Path: "/x"}
)

func upgradeTree(v string) widget.TreeState {
	return widget.TreeState{Class: "textfield", Name: "x",
		Attrs: attr.Set{widget.AttrValue: attr.String(v)}}
}

func upgradeExec(id uint64, origin couple.ObjectRef) wire.Exec {
	return wire.Exec{EventID: id, TargetPath: origin.Path, Name: "changed",
		Args: []attr.Value{attr.String(fmt.Sprintf("e%d", id))}, Origin: origin}
}

// upgradeState is a snapshot as a 4-shard server wrote it: the coupled
// group {app-1:/x, app-2:/x} was routed to shard 3, shard 0 had allocated
// event ID 1 and shard 3 the IDs 4, 8 and 12, and the group carries a
// history stack and a late-join tail.
func upgradeState() *snapState {
	return &snapState{
		nshards:   4,
		regSeq:    2,
		shardSeqs: []uint64{1, 0, 0, 3},
		insts: []snapInst{
			{id: upA.Instance, appType: "app", host: "h", user: "u1", objs: [][2]string{{"/x", "textfield"}}},
			{id: upB.Instance, appType: "app", host: "h", user: "u2", objs: [][2]string{{"/x", "textfield"}}},
		},
		links:    []couple.Link{{From: upA, To: upB, Creator: upA.Instance}},
		sessions: []snapSession{{token: "tok-1", rec: sessionRec{id: upA.Instance, appType: "app", host: "h", user: "u1"}}},
		routes:   []snapRoute{{ref: upA, shard: 3}, {ref: upB, shard: 3}},
		hists: []snapHist{{ref: upB, undo: []hist.Snapshot{
			{Ref: upB, State: upgradeTree("v0"), Origin: upA.Instance},
		}}},
		tails: []snapTail{{ref: upA, execs: []wire.Exec{upgradeExec(4, upA), upgradeExec(8, upA), upgradeExec(12, upA)}}},
	}
}

// TestRestoreShardedSnapshotAndLog restarts a single-loop server on a
// directory a 4-shard server left behind: a snapshot in the multi-shard
// layout followed by log records whose event IDs interleave (2, 5, 7) and
// stay below the snapshot's largest ID (12). The restart must allocate event
// IDs past every stored one, restore every history and tail, and leave a
// directory that fscks clean.
func TestRestoreShardedSnapshotAndLog(t *testing.T) {
	dir := t.TempDir()
	elog, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendRec := func(kind eventlog.Kind, origin couple.InstanceID, msg wire.Message) {
		t.Helper()
		if err := elog.Append(eventlog.Record{Kind: kind, Origin: string(origin), Env: wire.Envelope{Msg: msg}}); err != nil {
			t.Fatal(err)
		}
	}
	// The records the snapshot covers.
	appendRec(eventlog.KindRegister, upA.Instance, wire.Register{AppType: "app", Host: "h", User: "u1"})
	appendRec(eventlog.KindRegister, upB.Instance, wire.Register{AppType: "app", Host: "h", User: "u2"})
	appendRec(eventlog.KindDeclare, upA.Instance, wire.Declare{Path: "/x", Class: "textfield"})
	appendRec(eventlog.KindDeclare, upB.Instance, wire.Declare{Path: "/x", Class: "textfield"})
	appendRec(eventlog.KindCouple, upA.Instance, wire.Couple{From: upA, To: upB})
	appendRec(eventlog.KindEvent, upB.Instance, upgradeExec(1, upB))
	appendRec(eventlog.KindHist, upA.Instance, wire.CopyTo{To: upB, State: upgradeTree("v0")})
	for _, id := range []uint64{4, 8, 12} {
		appendRec(eventlog.KindEvent, upA.Instance, upgradeExec(id, upA))
	}
	appendRec(eventlog.KindToken, upA.Instance, wire.SessionToken{Token: "tok-1"})
	off, err := eventlog.ReplayDirFrom(dir, 0, func(eventlog.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := elog.WriteSnapshot(off, upgradeState().encode()); err != nil {
		t.Fatal(err)
	}
	// Records behind the snapshot, with IDs from three different shards.
	appendRec(eventlog.KindEvent, upB.Instance, upgradeExec(2, upB))
	appendRec(eventlog.KindEvent, upA.Instance, upgradeExec(5, upA))
	appendRec(eventlog.KindHist, upB.Instance, wire.CopyTo{To: upA, State: upgradeTree("v1")})
	appendRec(eventlog.KindEvent, upB.Instance, upgradeExec(7, upB))
	if err := elog.Close(); err != nil {
		t.Fatal(err)
	}

	elog2, err := eventlog.Open(eventlog.Options{Dir: dir, Sync: eventlog.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	rig := newCrashRig(t, Options{EventLog: elog2, ReplayTail: true})

	tailIDs := func(ref couple.ObjectRef) []uint64 {
		var ids []uint64
		for _, te := range rig.srv.tails[ref] {
			ids = append(ids, te.exec.EventID)
		}
		return ids
	}
	type restored struct {
		seq           uint64
		undoA, undoB  []hist.Snapshot
		tailA, tailB  []uint64
		links, insts  int
		sessionsKnown bool
	}
	read := func() restored {
		ch := make(chan restored, 1)
		rig.srv.post(func() {
			var r restored
			r.seq = rig.srv.eventSeq
			r.undoA, _ = rig.srv.history.Stacks(upA)
			r.undoB, _ = rig.srv.history.Stacks(upB)
			r.tailA, r.tailB = tailIDs(upA), tailIDs(upB)
			r.links, r.insts = rig.srv.graph.Len(), rig.srv.reg.Len()
			_, r.sessionsKnown = rig.srv.sessions["tok-1"]
			ch <- r
		})
		return <-ch
	}
	got := read()
	if got.seq != 12 {
		t.Errorf("event sequence = %d after restore, want 12 (largest stored ID)", got.seq)
	}
	if len(got.undoB) != 1 || !reflect.DeepEqual(got.undoB[0].State, upgradeTree("v0")) {
		t.Errorf("snapshot history of %s = %v", upB, got.undoB)
	}
	if len(got.undoA) != 1 || !reflect.DeepEqual(got.undoA[0].State, upgradeTree("v1")) {
		t.Errorf("replayed history of %s = %v", upA, got.undoA)
	}
	if want := []uint64{4, 8, 12, 5}; !reflect.DeepEqual(got.tailA, want) {
		t.Errorf("tail of %s = %v, want %v", upA, got.tailA, want)
	}
	if want := []uint64{2, 7}; !reflect.DeepEqual(got.tailB, want) {
		t.Errorf("tail of %s = %v, want %v", upB, got.tailB, want)
	}
	if got.links != 1 || got.insts != 2 || !got.sessionsKnown {
		t.Errorf("restored links=%d instances=%d session=%v, want 1, 2, true", got.links, got.insts, got.sessionsKnown)
	}

	// One live event through fresh instances: its ID must come after every
	// stored one.
	rig.dial("C", "u3")
	rig.dial("D", "u4")
	c, d := rig.cl["C"], rig.cl["D"]
	rig.mustOK(c.Declare("/x"))
	rig.mustOK(d.Declare("/x"))
	rig.mustOK(c.Couple("/x", d.Ref("/x")))
	rig.wait("C coupled", func() bool { return c.Coupled("/x") })
	rig.dispatchTo("C", "live", "D")
	if got := read().seq; got != 13 {
		t.Errorf("first live event took ID %d, want 13", got)
	}
	if c.ID() == upA.Instance || c.ID() == upB.Instance || d.ID() == upA.Instance || d.ID() == upB.Instance {
		t.Errorf("fresh instances %s, %s reuse a restored ID", c.ID(), d.ID())
	}
	rig.shutdown()
	if err := elog2.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := eventlog.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt {
		t.Fatalf("fsck after upgrade restart: %s", rep.Detail)
	}
}

// FuzzDecodeState feeds arbitrary payloads to the snapshot decoder. It must
// never panic, and any payload it accepts must install into a fresh server
// whose re-encoded state decodes and installs to the same server: same
// digest, same canonical bytes.
func FuzzDecodeState(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		fold := newFoldServer(Options{ReplayTail: true})
		for _, r := range genRecords(rand.New(rand.NewSource(seed))) {
			fold.replayRecord(r)
		}
		f.Add(fold.encodeState())
		f.Add(multiShardLayout(fold.captureState(), 3).encode())
	}
	f.Add(upgradeState().encode())
	f.Fuzz(func(t *testing.T, payload []byte) {
		st, err := decodeState(payload)
		if err != nil {
			return
		}
		first := newFoldServer(Options{ReplayTail: true})
		first.installState(st)
		again := first.encodeState()
		st2, err := decodeState(again)
		if err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		second := newFoldServer(Options{ReplayTail: true})
		second.installState(st2)
		if a, b := foldDigest(first), foldDigest(second); a != b {
			t.Fatalf("re-encoded state installs differently:\nfirst:\n%s\nsecond:\n%s", a, b)
		}
		if !bytes.Equal(again, second.encodeState()) {
			t.Fatal("canonical encoding is not a fixpoint")
		}
	})
}
