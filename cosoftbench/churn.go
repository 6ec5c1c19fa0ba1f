package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cosoft/internal/client"
	"cosoft/internal/couple"
)

// churner is one instance that repeatedly couples its /hub into the big
// group through a seeded-random member and decouples it again.
type churner struct {
	idx int
	cl  *client.Client
	rng *rand.Rand
	seq atomic.Uint64
}

// scriptOp is one couple-graph mutation, replayed later into a standalone
// couple.Graph to time the graph layer alone.
type scriptOp struct {
	remove bool
	link   couple.Link
}

type scriptLog struct {
	mu  sync.Mutex
	ops []scriptOp
	max int
}

func (s *scriptLog) add(op scriptOp) {
	s.mu.Lock()
	if len(s.ops) < s.max {
		s.ops = append(s.ops, op)
	}
	s.mu.Unlock()
}

// cycle is one churn round: Couple to a random member, wait until every
// member's mirror shows the joiner, Decouple, wait until every mirror has
// dropped it. Couple and Decouple are one operation each.
func (c *churner) cycle(tree []*client.Client, m *meter, script *scriptLog, timeout time.Duration) error {
	to := tree[c.rng.Intn(len(tree))].Ref(hubPath)
	self := c.cl.Ref(hubPath)
	seq := c.seq.Add(1)
	id := spanID(c.idx, seq)
	measured := m.measuring.Load()
	if measured {
		m.attempted.Add(2)
	}
	fail := func(err error) error {
		if measured {
			m.failed.Add(1)
		}
		return err
	}

	t0 := time.Now()
	if err := c.cl.Couple(hubPath, to); err != nil {
		return fail(fmt.Errorf("churner %d couple: %w", c.idx, err))
	}
	t1 := time.Now()
	script.add(scriptOp{link: couple.Link{From: self, To: to}})
	t2, err := mirrorsShow(tree, self, true, timeout)
	if err != nil {
		return fail(err)
	}
	m.rec.record(spanCouple, id, t0, t1)
	m.rec.record(spanMirror, id, t1, t2)

	t3 := time.Now()
	if err := c.cl.Decouple(hubPath, to); err != nil {
		return fail(fmt.Errorf("churner %d decouple: %w", c.idx, err))
	}
	t4 := time.Now()
	script.add(scriptOp{remove: true, link: couple.Link{From: self, To: to}})
	t5, err := mirrorsShow(tree, self, false, timeout)
	if err != nil {
		return fail(err)
	}
	m.rec.record(spanDecouple, id, t3, t4)
	m.rec.record(spanMirror, id, t4, t5)
	m.rec.record(spanOp, id, t0, t5)
	if measured {
		m.ops.Add(2)
		m.accept.add(t0, t1.Sub(t0))
		m.sync.add(t0, t2.Sub(t0))
		m.decouple.add(t3, t4.Sub(t3))
		m.mirror.add(t1, t2.Sub(t1))
	}
	return nil
}

func churn(churners []*churner, tree []*client.Client, m *meter, script *scriptLog, stop *atomic.Bool, timeout time.Duration) error {
	errs := make([]error, len(churners))
	var wg sync.WaitGroup
	for i, c := range churners {
		wg.Add(1)
		go func(i int, c *churner) {
			defer wg.Done()
			for !stop.Load() {
				if err := c.cycle(tree, m, script, timeout); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// checkClosure verifies, after churn quiesced, that every tree member's
// mirrored closure is exactly the other tree members (the closure the
// benchmark built) and that no churner is still coupled.
func checkClosure(tree []*client.Client, churners []*churner) error {
	want := make([]string, 0, len(tree))
	for _, m := range tree {
		want = append(want, m.Ref(hubPath).String())
	}
	sort.Strings(want)
	for _, m := range tree {
		self := m.Ref(hubPath).String()
		got := []string{self}
		for _, r := range m.CO(hubPath) {
			got = append(got, r.String())
		}
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("mirror of %s holds %d refs, want the %d-member tree", self, len(got), len(want))
		}
	}
	for _, c := range churners {
		if co := c.cl.CO(hubPath); len(co) != 0 {
			return fmt.Errorf("churner %d still mirrors %d coupled objects", c.idx, len(co))
		}
	}
	return nil
}
