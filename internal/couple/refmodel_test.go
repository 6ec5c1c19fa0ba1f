package couple

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// refModel is a brute-force oracle for the couple graph: it stores edges in
// a set and computes groups with Warshall's transitive closure over the
// symmetric relation.
type refModel struct {
	objs  []ObjectRef
	edges map[[2]ObjectRef]int
}

func newRefModel(objs []ObjectRef) *refModel {
	return &refModel{objs: objs, edges: make(map[[2]ObjectRef]int)}
}

func (m *refModel) add(a, b ObjectRef) {
	m.edges[[2]ObjectRef{a, b}]++
}

func (m *refModel) removeAll(a, b ObjectRef) bool {
	k := [2]ObjectRef{a, b}
	had := m.edges[k] > 0
	delete(m.edges, k)
	return had
}

func (m *refModel) removeObject(o ObjectRef) {
	for k := range m.edges {
		if k[0] == o || k[1] == o {
			delete(m.edges, k)
		}
	}
}

func (m *refModel) removeInstance(id InstanceID) {
	for k := range m.edges {
		if k[0].Instance == id || k[1].Instance == id {
			delete(m.edges, k)
		}
	}
}

// co computes the closure from o by Warshall over the symmetric adjacency.
func (m *refModel) co(o ObjectRef) []ObjectRef {
	idx := map[ObjectRef]int{}
	for i, obj := range m.objs {
		idx[obj] = i
	}
	n := len(m.objs)
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
		adj[i][i] = true
	}
	for k, count := range m.edges {
		if count <= 0 {
			continue
		}
		i, j := idx[k[0]], idx[k[1]]
		adj[i][j], adj[j][i] = true, true
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !adj[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if adj[k][j] {
					adj[i][j] = true
				}
			}
		}
	}
	var out []ObjectRef
	oi := idx[o]
	for j, obj := range m.objs {
		if j != oi && adj[oi][j] {
			out = append(out, obj)
		}
	}
	return out
}

// groupLinks lists the links of o's group. Every link the property adds is
// created by its source's instance.
func (m *refModel) groupLinks(o ObjectRef) []Link {
	in := map[ObjectRef]bool{o: true}
	for _, c := range m.co(o) {
		in[c] = true
	}
	var out []Link
	for k, count := range m.edges {
		if count > 0 && in[k[0]] {
			out = append(out, Link{From: k[0], To: k[1], Creator: k[0].Instance})
		}
	}
	sortLinks(out)
	return out
}

// TestPropGraphMatchesReferenceModel drives the real graph and the oracle
// with the same random operation sequence and compares CO(o) and
// GroupLinks(o) for every object after every step.
func TestPropGraphMatchesReferenceModel(t *testing.T) {
	objs := make([]ObjectRef, 0, 9)
	for i := 0; i < 3; i++ {
		for p := 0; p < 3; p++ {
			objs = append(objs, ObjectRef{
				Instance: InstanceID(rune('A' + i)),
				Path:     "/" + string(rune('a'+p)),
			})
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewGraph()
		ref := newRefModel(objs)
		for step := 0; step < 30; step++ {
			switch r.Intn(5) {
			case 0, 1: // add link (biased toward adds)
				a, b := objs[r.Intn(len(objs))], objs[r.Intn(len(objs))]
				if a == b {
					continue
				}
				if err := g.AddLink(Link{From: a, To: b, Creator: a.Instance}); err == nil {
					ref.add(a, b)
				}
			case 2: // remove link
				a, b := objs[r.Intn(len(objs))], objs[r.Intn(len(objs))]
				got := g.RemoveLink(a, b)
				want := ref.removeAll(a, b)
				if got != want {
					t.Logf("seed %d step %d: RemoveLink(%v,%v) = %v, oracle %v", seed, step, a, b, got, want)
					return false
				}
			case 3: // remove object
				o := objs[r.Intn(len(objs))]
				g.RemoveObject(o)
				ref.removeObject(o)
			case 4: // remove instance
				id := InstanceID(rune('A' + r.Intn(3)))
				g.RemoveInstance(id)
				ref.removeInstance(id)
			}
			for _, o := range objs {
				got := g.CO(o)
				want := ref.co(o)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Logf("seed %d step %d: CO(%v) = %v, oracle %v", seed, step, o, got, want)
					return false
				}
			}
			for _, o := range objs {
				members, got := g.GroupLinks(o)
				wantMembers := append(ref.co(o), o)
				sort.Slice(wantMembers, func(i, j int) bool { return wantMembers[i].Less(wantMembers[j]) })
				if !reflect.DeepEqual(members, wantMembers) {
					t.Logf("seed %d step %d: GroupLinks(%v) members = %v, oracle %v", seed, step, o, members, wantMembers)
					return false
				}
				want := ref.groupLinks(o)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Logf("seed %d step %d: GroupLinks(%v) = %v, oracle %v", seed, step, o, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
