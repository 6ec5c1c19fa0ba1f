// State snapshots: periodic durable captures of the full replayable server
// state, so restart replay begins at the snapshot's log offset instead of
// zero and the eventlog compactor can delete everything older.
//
// Consistency without stalls: instead of freezing the live loop to copy
// its state, the snapshot goroutine maintains an offline *fold replica* —
// a second Server built by the same constructor, never started, advanced
// only by replaying the durable log's records through the very replayRecord
// used at startup. A snapshot at offset N is therefore *defined* as
// fold(records[0:N)) — exactly what a restarting server computes — so
// snapshot-then-tail-replay equals full replay by construction, and the live
// state loop never blocks on snapshot work.
//
// The snapshot payload (opaque bytes to the eventlog) carries, in order: the
// format version, the shard count, the registry ID-allocator sequence, the
// per-shard event-ID sequences, the registration records with their declared
// objects, the couple links, the permission rules (insertion order — rule
// order is semantic), the resumable sessions, the route overrides, the
// per-object undo/redo history stacks, and the bounded per-object late-join
// event tails. The shard count, sequences and routes are the layout of the
// multi-shard server that preceded the single loop: the writer emits one
// shard, one sequence and no routes, and restore still reads what a
// multi-shard server wrote (see installState).
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cosoft/internal/couple"
	"cosoft/internal/eventlog"
	"cosoft/internal/hist"
	"cosoft/internal/obs"
	"cosoft/internal/perm"
	"cosoft/internal/registry"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// stateVersion versions the snapshot payload layout.
const stateVersion = 1

// newFoldServer builds the offline replica the snapshotter folds log records
// into: same databases, no goroutines, no measurement.
func newFoldServer(opts Options) *Server {
	opts.EventLog = nil
	opts.Metrics = obs.Disabled
	opts.Tracer = nil
	opts.Flight = nil
	if opts.Logger != nil {
		opts.Logger = opts.Logger.With("replica", "fold")
	}
	opts.Logf = nil
	opts.foldReplica = true
	return newServer(opts)
}

// snapshotter owns the fold replica and the snapshot/compaction cycle. All
// methods serialize on mu, so the periodic loop and a forced Snapshot never
// interleave.
type snapshotter struct {
	s    *Server
	mu   sync.Mutex
	fold *Server
	// off is the log byte offset the fold replica has consumed.
	off int64
	// lastSnapOff is the offset of the newest snapshot written (or seeded
	// from at construction); the SnapshotBytes trigger measures against it.
	lastSnapOff int64
}

// newSnapshotter builds the fold replica, seeding it from the newest
// decodable snapshot exactly as replayLog seeds the live server.
func newSnapshotter(s *Server) *snapshotter {
	sn := &snapshotter{s: s, fold: newFoldServer(s.opts)}
	if snaps, err := s.elog.Snapshots(); err == nil {
		for _, ref := range snaps {
			st, derr := decodeState(ref.Payload)
			if derr != nil {
				continue
			}
			sn.fold.installState(st)
			sn.off = ref.Offset
			sn.lastSnapOff = ref.Offset
			break
		}
	}
	return sn
}

// once runs one snapshot cycle: fold the log's new durable records into the
// replica, write a snapshot at the folded offset if the cadence (or force)
// says so, then compact. Reading stops cleanly at a torn or in-flight
// record — the next cycle resumes there.
func (sn *snapshotter) once(force bool) error {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	end, err := eventlog.ReplayDirFrom(sn.s.elog.Dir(), sn.off, func(rec eventlog.Record) error {
		sn.fold.replayRecord(rec)
		return nil
	})
	if err != nil {
		return err
	}
	sn.off = end
	if !force {
		if end <= sn.lastSnapOff {
			return nil
		}
		iv, bytes := sn.s.opts.SnapshotInterval, sn.s.opts.SnapshotBytes
		// The loop ticks at SnapshotInterval when one is set, so reaching
		// here with new bytes is itself the time trigger; with only a byte
		// cadence, wait for the volume threshold.
		if iv <= 0 && (bytes <= 0 || end-sn.lastSnapOff < bytes) {
			return nil
		}
	}
	if err := sn.s.elog.WriteSnapshot(end, sn.fold.encodeState()); err != nil {
		return err
	}
	sn.lastSnapOff = end
	_, err = sn.s.elog.Compact()
	return err
}

// snapshotLoop drives the periodic snapshot/compaction cycle.
func (s *Server) snapshotLoop() {
	defer s.wg.Done()
	period := s.opts.SnapshotInterval
	if period <= 0 {
		// Byte-cadence only: poll the log size briefly.
		period = 100 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			err := s.snap.once(false)
			if err != nil && !errors.Is(err, eventlog.ErrClosed) {
				s.slog.Warn("snapshot cycle failed", "err", err)
			}
		case <-s.quit:
			return
		}
	}
}

// Snapshot forces one synchronous snapshot+compaction cycle at the log's
// current durable offset. Errors if the server has no event log.
func (s *Server) Snapshot() error {
	if s.snap == nil {
		return errors.New("server: no event log configured")
	}
	return s.snap.once(true)
}

// snapState is the decoded form of a snapshot payload.
type snapState struct {
	// nshards, shardSeqs and routes describe the layout a multi-shard server
	// wrote; captureState always fills one shard and no routes.
	nshards   int
	regSeq    uint64
	shardSeqs []uint64
	insts     []snapInst
	links     []couple.Link
	rules     []perm.Rule
	sessions  []snapSession
	routes    []snapRoute
	hists     []snapHist
	tails     []snapTail
}

type snapInst struct {
	id                  couple.InstanceID
	appType, host, user string
	objs                [][2]string // path, class
}

type snapSession struct {
	token string
	rec   sessionRec
}

type snapRoute struct {
	ref   couple.ObjectRef
	shard int
}

type snapHist struct {
	ref        couple.ObjectRef
	undo, redo []hist.Snapshot
}

type snapTail struct {
	ref   couple.ObjectRef
	execs []wire.Exec
}

// encodeState serializes the server's replayable state. It reads the
// databases directly, so the caller must own them quiescently — it is only
// ever called on the snapshotter's fold replica (never the live server).
func (s *Server) encodeState() []byte { return s.captureState().encode() }

// captureState copies the server's replayable state into a snapState, in
// the payload's canonical (sorted) order.
func (s *Server) captureState() *snapState {
	st := &snapState{nshards: 1, regSeq: s.reg.Seq(), shardSeqs: []uint64{s.eventSeq}}
	for _, id := range s.reg.Instances() { // sorted
		r, _ := s.reg.Lookup(id)
		in := snapInst{id: r.ID, appType: r.AppType, host: r.Host, user: r.User}
		paths := make([]string, 0, len(r.Objects))
		for p := range r.Objects {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			in.objs = append(in.objs, [2]string{p, r.Objects[p]})
		}
		st.insts = append(st.insts, in)
	}
	st.links = s.graph.Links() // sorted
	st.rules = s.perms.Rules()
	toks := make([]string, 0, len(s.sessions))
	for tok := range s.sessions {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	for _, tok := range toks {
		st.sessions = append(st.sessions, snapSession{token: tok, rec: s.sessions[tok]})
	}
	for _, ref := range s.history.Refs() { // sorted
		h := snapHist{ref: ref}
		h.undo, h.redo = s.history.Stacks(ref)
		st.hists = append(st.hists, h)
	}
	trefs := make([]couple.ObjectRef, 0, len(s.tails))
	for ref := range s.tails {
		trefs = append(trefs, ref)
	}
	sort.Slice(trefs, func(i, j int) bool { return trefs[i].Less(trefs[j]) })
	for _, ref := range trefs {
		tl := snapTail{ref: ref}
		for _, te := range s.tails[ref] {
			tl.execs = append(tl.execs, te.exec)
		}
		st.tails = append(st.tails, tl)
	}
	return st
}

// encode serializes st; decodeState is its inverse.
func (st *snapState) encode() []byte {
	buf := []byte{stateVersion}
	buf = binary.AppendUvarint(buf, uint64(st.nshards))
	buf = binary.AppendUvarint(buf, st.regSeq)
	for _, q := range st.shardSeqs {
		buf = binary.AppendUvarint(buf, q)
	}

	buf = binary.AppendUvarint(buf, uint64(len(st.insts)))
	for _, in := range st.insts {
		buf = appendSnapStr(buf, string(in.id))
		buf = appendSnapStr(buf, in.appType)
		buf = appendSnapStr(buf, in.host)
		buf = appendSnapStr(buf, in.user)
		buf = binary.AppendUvarint(buf, uint64(len(in.objs)))
		for _, obj := range in.objs {
			buf = appendSnapStr(buf, obj[0])
			buf = appendSnapStr(buf, obj[1])
		}
	}

	buf = binary.AppendUvarint(buf, uint64(len(st.links)))
	for _, l := range st.links {
		buf = appendSnapRef(buf, l.From)
		buf = appendSnapRef(buf, l.To)
		buf = appendSnapStr(buf, string(l.Creator))
	}

	buf = binary.AppendUvarint(buf, uint64(len(st.rules)))
	for _, r := range st.rules {
		buf = appendSnapStr(buf, r.User)
		buf = appendSnapStr(buf, r.State)
		buf = binary.AppendUvarint(buf, uint64(r.Right))
	}

	buf = binary.AppendUvarint(buf, uint64(len(st.sessions)))
	for _, ss := range st.sessions {
		buf = appendSnapStr(buf, ss.token)
		buf = appendSnapStr(buf, string(ss.rec.id))
		buf = appendSnapStr(buf, ss.rec.appType)
		buf = appendSnapStr(buf, ss.rec.host)
		buf = appendSnapStr(buf, ss.rec.user)
	}

	buf = binary.AppendUvarint(buf, uint64(len(st.routes)))
	for _, rt := range st.routes {
		buf = appendSnapRef(buf, rt.ref)
		buf = binary.AppendUvarint(buf, uint64(rt.shard))
	}

	buf = binary.AppendUvarint(buf, uint64(len(st.hists)))
	for _, h := range st.hists {
		buf = appendSnapRef(buf, h.ref)
		buf = appendSnapStack(buf, h.undo)
		buf = appendSnapStack(buf, h.redo)
	}

	buf = binary.AppendUvarint(buf, uint64(len(st.tails)))
	for _, tl := range st.tails {
		buf = binary.AppendUvarint(buf, uint64(len(tl.execs)))
		buf = appendSnapRef(buf, tl.ref)
		for _, e := range tl.execs {
			buf = appendSnapBytes(buf, wire.AppendEnvelope(nil, wire.Envelope{Msg: e}))
		}
	}
	return buf
}

func appendSnapStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendSnapBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendSnapRef(b []byte, ref couple.ObjectRef) []byte {
	b = appendSnapStr(b, string(ref.Instance))
	return appendSnapStr(b, ref.Path)
}

func appendSnapStack(b []byte, snaps []hist.Snapshot) []byte {
	b = binary.AppendUvarint(b, uint64(len(snaps)))
	for _, sn := range snaps {
		b = appendSnapStr(b, string(sn.Origin))
		at := int64(0)
		if !sn.At.IsZero() {
			at = sn.At.UnixNano()
		}
		b = binary.AppendVarint(b, at)
		b = appendSnapBytes(b, widget.AppendTreeState(nil, sn.State))
	}
	return b
}

// stateReader decodes a snapshot payload with sticky error handling.
type stateReader struct {
	b   []byte
	err error
}

func (r *stateReader) fail(why string) {
	if r.err == nil {
		r.err = errors.New("server: snapshot: " + why)
	}
}

func (r *stateReader) uv() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *stateReader) vi() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *stateReader) str() string {
	n := r.uv()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.fail("string overruns payload")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *stateReader) bytes() []byte {
	n := r.uv()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.fail("bytes overrun payload")
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *stateReader) ref() couple.ObjectRef {
	inst := r.str()
	path := r.str()
	return couple.ObjectRef{Instance: couple.InstanceID(inst), Path: path}
}

// count bounds a length prefix by the bytes actually remaining, so a
// corrupt length can't make decode allocate unboundedly.
func (r *stateReader) count() int {
	n := r.uv()
	if r.err == nil && n > uint64(len(r.b)) {
		r.fail("count overruns payload")
		return 0
	}
	return int(n)
}

func (r *stateReader) stack(ref couple.ObjectRef) []hist.Snapshot {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	snaps := make([]hist.Snapshot, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		origin := r.str()
		at := r.vi()
		stateBytes := r.bytes()
		st, rest, err := widget.DecodeTreeState(stateBytes)
		if err != nil {
			r.fail("tree state: " + err.Error())
			return nil
		}
		if len(rest) != 0 {
			r.fail("tree state has trailing bytes")
			return nil
		}
		sn := hist.Snapshot{Ref: ref, State: st, Origin: couple.InstanceID(origin)}
		if at != 0 {
			sn.At = time.Unix(0, at)
		}
		snaps = append(snaps, sn)
	}
	return snaps
}

// decodeState parses a snapshot payload. It is all-or-nothing: any error
// rejects the whole payload so installState never applies a partial state.
func decodeState(payload []byte) (*snapState, error) {
	if len(payload) < 1 {
		return nil, errors.New("server: snapshot: empty payload")
	}
	if payload[0] != stateVersion {
		return nil, fmt.Errorf("server: snapshot: unknown state version %d", payload[0])
	}
	r := &stateReader{b: payload[1:]}
	st := &snapState{}
	st.nshards = int(r.uv())
	if r.err == nil && (st.nshards < 1 || st.nshards > 1<<16) {
		r.fail("implausible shard count")
	}
	st.regSeq = r.uv()
	if r.err != nil {
		return nil, r.err
	}
	st.shardSeqs = make([]uint64, st.nshards)
	for i := range st.shardSeqs {
		st.shardSeqs[i] = r.uv()
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		in := snapInst{
			id:      couple.InstanceID(r.str()),
			appType: r.str(),
			host:    r.str(),
			user:    r.str(),
		}
		for j, m := 0, r.count(); j < m && r.err == nil; j++ {
			in.objs = append(in.objs, [2]string{r.str(), r.str()})
		}
		st.insts = append(st.insts, in)
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		st.links = append(st.links, couple.Link{
			From:    r.ref(),
			To:      r.ref(),
			Creator: couple.InstanceID(r.str()),
		})
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		st.rules = append(st.rules, perm.Rule{
			User:  r.str(),
			State: r.str(),
			Right: perm.Right(r.uv()),
		})
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		ss := snapSession{token: r.str()}
		ss.rec = sessionRec{
			id:      couple.InstanceID(r.str()),
			appType: r.str(),
			host:    r.str(),
			user:    r.str(),
		}
		st.sessions = append(st.sessions, ss)
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		rt := snapRoute{ref: r.ref(), shard: int(r.uv())}
		if r.err == nil && (rt.shard < 0 || rt.shard >= st.nshards) {
			r.fail("route shard out of range")
		}
		st.routes = append(st.routes, rt)
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		h := snapHist{ref: r.ref()}
		h.undo = r.stack(h.ref)
		h.redo = r.stack(h.ref)
		st.hists = append(st.hists, h)
	}
	for i, n := 0, r.count(); i < n && r.err == nil; i++ {
		m := r.count()
		tl := snapTail{ref: r.ref()}
		for j := 0; j < m && r.err == nil; j++ {
			env, err := wire.DecodeEnvelope(r.bytes())
			if err != nil {
				r.fail("tail envelope: " + err.Error())
				break
			}
			exec, ok := env.Msg.(wire.Exec)
			if !ok {
				r.fail("tail envelope is not Exec")
				break
			}
			tl.execs = append(tl.execs, exec)
		}
		st.tails = append(st.tails, tl)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, errors.New("server: snapshot: trailing bytes")
	}
	return st, nil
}

// installState applies a decoded snapshot to a freshly built server (live at
// startup before the loop runs, or the fold replica at seeding). Mutations
// mirror replayRecord's. A snapshot written by a server with N state shards
// carries N interleaved event sequences — shard i allocated the IDs i+1,
// i+1+N, i+1+2N, … — so the event sequence resumes past the largest ID any
// stored sequence could have allocated; with one shard that is the stored
// sequence itself. Stored route overrides only placed groups on shards and
// are ignored.
func (s *Server) installState(st *snapState) {
	warn := func(what string, err error) {
		s.slog.Warn("snapshot install skipped "+what, "err", err)
	}
	s.reg.SetSeq(st.regSeq)
	for _, in := range st.insts {
		r := registry.Record{ID: in.id, AppType: in.appType, Host: in.host, User: in.user}
		if err := s.reg.Register(r); err != nil {
			warn("registration", err)
			continue
		}
		s.reg.RestoreSeq(in.id)
		for _, obj := range in.objs {
			if err := s.reg.DeclareObject(in.id, obj[0], obj[1]); err != nil {
				warn("declaration", err)
			}
		}
	}
	for _, l := range st.links {
		if err := s.graph.AddLink(l); err != nil {
			warn("couple link", err)
		}
	}
	for _, r := range st.rules {
		s.perms.Grant(r)
	}
	for _, ss := range st.sessions {
		if old, ok := s.sessionTok[ss.rec.id]; ok {
			delete(s.sessions, old)
		}
		s.sessions[ss.token] = ss.rec
		s.sessionTok[ss.rec.id] = ss.token
	}
	for i, q := range st.shardSeqs {
		if q == 0 {
			continue
		}
		if id := (q-1)*uint64(st.nshards) + uint64(i) + 1; id > s.eventSeq {
			s.eventSeq = id
		}
	}
	for _, h := range st.hists {
		s.history.Restore(h.ref, h.undo, h.redo)
	}
	for _, tl := range st.tails {
		tes := make([]tailEvent, 0, len(tl.execs))
		for _, e := range tl.execs {
			tes = append(tes, tailEvent{exec: e})
		}
		s.tails[tl.ref] = tes
	}
}
