package server

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	coclient "cosoft/internal/client"
	"cosoft/internal/netsim"
	"cosoft/internal/widget"
	"cosoft/internal/wire"
)

// mirrorRig runs one server and a fixed number of client slots, each an
// instance declaring the objects /a and /b. A slot's client is replaced by
// a fresh instance when the script disconnects it, and resumes its own
// session when the script severs its connection.
type mirrorRig struct {
	t        *testing.T
	srv      *Server
	batching bool
	slots    []*coclient.Client
	links    []*netsim.Link  // each slot's current connection
	resynced []chan struct{} // each slot's finished resumes
	mu       sync.Mutex      // guards links: reconnects dial concurrently
	conns    sync.WaitGroup  // server-side connection handlers
}

var mirrorPaths = []string{"/a", "/b"}

// connect opens a connection for slot i and serves it.
func (r *mirrorRig) connect(i int) (net.Conn, error) {
	link := netsim.NewLink(0)
	r.mu.Lock()
	r.links[i] = link
	r.mu.Unlock()
	r.conns.Add(1)
	go func() {
		defer r.conns.Done()
		r.srv.HandleConn(wire.NewConn(link.B))
	}()
	return link.A, nil
}

func (r *mirrorRig) dial(i int) {
	r.t.Helper()
	reg := widget.NewRegistry()
	widget.MustBuild(reg, "/", "textfield a value=\"\"\ntextfield b value=\"\"")
	conn, _ := r.connect(i)
	resynced := make(chan struct{}, 1)
	r.resynced[i] = resynced
	c, err := coclient.New(conn, coclient.Options{
		AppType: "app", User: fmt.Sprintf("u%d", i), Host: "mirror", Registry: reg,
		RPCTimeout: 5 * time.Second, Batching: r.batching,
		Reconnect: &coclient.ReconnectOptions{
			Dial:      func() (net.Conn, error) { return r.connect(i) },
			BaseDelay: time.Millisecond,
			Seed:      uint64(i + 1),
			OnResync:  func(error) { resynced <- struct{}{} },
		},
	})
	if err != nil {
		r.t.Fatalf("dial slot %d: %v", i, err)
	}
	for _, p := range mirrorPaths {
		if err := c.Declare(p); err != nil {
			r.t.Fatalf("declare %s at slot %d: %v", p, i, err)
		}
	}
	r.slots[i] = c
}

// step applies one scripted operation. Operations the server refuses (a
// decouple of an absent link, a couple naming a retracted object) are part
// of the script and are ignored; step fails only when a severed slot does
// not finish its resume.
func (r *mirrorRig) step(rng *rand.Rand) (string, error) {
	n := len(r.slots)
	i, j := rng.Intn(n), rng.Intn(n)
	pi, pj := mirrorPaths[rng.Intn(2)], mirrorPaths[rng.Intn(2)]
	ci, cj := r.slots[i], r.slots[j]
	switch k := rng.Intn(11); {
	case k < 5:
		_ = ci.Couple(pi, cj.Ref(pj))
		return fmt.Sprintf("couple %d%s-%d%s", i, pi, j, pj), nil
	case k < 8:
		_ = ci.Decouple(pi, cj.Ref(pj))
		return fmt.Sprintf("decouple %d%s-%d%s", i, pi, j, pj), nil
	case k < 9:
		if _, err := ci.Registry().Lookup(pi); err != nil {
			// Retracted earlier: bring the object back.
			widget.MustBuild(ci.Registry(), "/", "textfield "+pi[1:]+" value=\"\"")
			_ = ci.Declare(pi)
			return fmt.Sprintf("redeclare %d%s", i, pi), nil
		}
		_ = ci.Registry().Destroy(pi) // auto-retracts
		return fmt.Sprintf("retract %d%s", i, pi), nil
	case k < 10:
		ci.Close()
		r.dial(i)
		return fmt.Sprintf("disconnect %d", i), nil
	default:
		// Sever the connection: the slot's supervisor resumes the same
		// instance, which the server dropped with all its links meanwhile.
		r.mu.Lock()
		link := r.links[i]
		r.mu.Unlock()
		link.Close()
		select {
		case <-r.resynced[i]:
		case <-time.After(5 * time.Second):
			return "", fmt.Errorf("slot %d: no resync within 5s of the sever", i)
		}
		return fmt.Sprintf("resume %d", i), nil
	}
}

// divergence compares every slot's mirrored CO(o) with the server's
// closure for each of its objects, returning "" when all agree.
func (r *mirrorRig) divergence() string {
	var b strings.Builder
	for i, c := range r.slots {
		for _, p := range mirrorPaths {
			want := r.srv.graph.CO(c.Ref(p))
			got := c.CO(p)
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				fmt.Fprintf(&b, "slot %d (%s) %s: mirror %v, server %v\n", i, c.ID(), p, got, want)
			}
		}
	}
	return b.String()
}

// TestMirrorClosureProperty drives random couple, decouple, retract,
// resume and disconnect scripts over six instances and requires, once traffic has
// quiesced, every client's mirrored CO(o) to equal the server's closure
// graph.CO(o) for each of its objects — plain and with wire batching.
func TestMirrorClosureProperty(t *testing.T) {
	for _, batchLimit := range []int{0, 8} {
		batchLimit := batchLimit
		t.Run(fmt.Sprintf("batch-%d", batchLimit), func(t *testing.T) {
			prop := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				r := &mirrorRig{t: t, srv: New(Options{BatchLimit: batchLimit}),
					batching: batchLimit > 0, slots: make([]*coclient.Client, 6),
					links: make([]*netsim.Link, 6), resynced: make([]chan struct{}, 6)}
				defer func() {
					r.srv.Close()
					for _, c := range r.slots {
						c.Close()
					}
					r.conns.Wait()
				}()
				for i := range r.slots {
					r.dial(i)
				}
				var script []string
				for n := 20 + rng.Intn(30); len(script) < n; {
					st, err := r.step(rng)
					if err != nil {
						t.Errorf("seed %d: after %v: %v", seed, script, err)
						return false
					}
					script = append(script, st)
				}
				deadline := time.Now().Add(5 * time.Second)
				for {
					d := r.divergence()
					if d == "" {
						return true
					}
					if time.Now().After(deadline) {
						t.Logf("seed %d: mirrors diverge after %v:\n%s", seed, script, d)
						return false
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
