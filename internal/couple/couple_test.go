package couple

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func ref(inst, path string) ObjectRef {
	return ObjectRef{Instance: InstanceID(inst), Path: path}
}

func TestAddLinkAndCO(t *testing.T) {
	g := NewGraph()
	a, b, c := ref("i1", "/x"), ref("i2", "/y"), ref("i3", "/z")
	if err := g.AddLink(Link{From: a, To: b, Creator: "i1"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(Link{From: b, To: c, Creator: "i2"}); err != nil {
		t.Fatal(err)
	}
	// Transitive closure: a is coupled with c through b.
	if got := g.CO(a); !reflect.DeepEqual(got, []ObjectRef{b, c}) {
		t.Errorf("CO(a) = %v", got)
	}
	if got := g.CO(c); !reflect.DeepEqual(got, []ObjectRef{a, b}) {
		t.Errorf("CO(c) = %v", got)
	}
	if got := g.Group(b); len(got) != 3 {
		t.Errorf("Group(b) = %v", got)
	}
	if !g.Coupled(a) || g.Coupled(ref("i9", "/none")) {
		t.Error("Coupled wrong")
	}
	if g.Len() != 2 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestSelfLinkRejected(t *testing.T) {
	g := NewGraph()
	a := ref("i1", "/x")
	if err := g.AddLink(Link{From: a, To: a, Creator: "i1"}); err == nil {
		t.Error("self link must fail")
	}
}

func TestDuplicateLinkIdempotent(t *testing.T) {
	g := NewGraph()
	a, b := ref("i1", "/x"), ref("i2", "/y")
	l := Link{From: a, To: b, Creator: "i1"}
	if err := g.AddLink(l); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(l); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
	g.RemoveLink(a, b)
	if g.Coupled(a) {
		t.Error("still coupled after removal")
	}
}

func TestParallelLinksDifferentCreators(t *testing.T) {
	g := NewGraph()
	a, b := ref("i1", "/x"), ref("i2", "/y")
	if err := g.AddLink(Link{From: a, To: b, Creator: "i1"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(Link{From: a, To: b, Creator: "i3"}); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	// RemoveLink removes both directed a->b links.
	if !g.RemoveLink(a, b) {
		t.Fatal("RemoveLink reported nothing removed")
	}
	if g.Coupled(a) || g.Coupled(b) {
		t.Error("objects still coupled")
	}
}

func TestDecouplingSplitsGroup(t *testing.T) {
	g := NewGraph()
	a, b, c := ref("i1", "/a"), ref("i2", "/b"), ref("i3", "/c")
	g.AddLink(Link{From: a, To: b, Creator: "i1"})
	g.AddLink(Link{From: b, To: c, Creator: "i1"})
	if !g.RemoveLink(b, c) {
		t.Fatal("remove failed")
	}
	if got := g.CO(a); !reflect.DeepEqual(got, []ObjectRef{b}) {
		t.Errorf("CO(a) = %v", got)
	}
	if got := g.CO(c); len(got) != 0 {
		t.Errorf("CO(c) = %v, want empty", got)
	}
	// Objects do not cease to exist when decoupled — the graph simply no
	// longer relates them (paper contrast with shared window systems).
	if g.RemoveLink(b, c) {
		t.Error("second removal must report false")
	}
}

func TestRemoveObject(t *testing.T) {
	g := NewGraph()
	a, b, c := ref("i1", "/a"), ref("i2", "/b"), ref("i3", "/c")
	g.AddLink(Link{From: a, To: b, Creator: "i1"})
	g.AddLink(Link{From: b, To: c, Creator: "i2"})
	removed := g.RemoveObject(b)
	if len(removed) != 2 {
		t.Fatalf("removed %d links, want 2", len(removed))
	}
	if g.Coupled(a) || g.Coupled(c) {
		t.Error("neighbors must be uncoupled")
	}
	if g.Len() != 0 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestRemoveInstance(t *testing.T) {
	g := NewGraph()
	a1, a2 := ref("gone", "/a"), ref("gone", "/b")
	b, c := ref("i2", "/x"), ref("i3", "/y")
	g.AddLink(Link{From: a1, To: b, Creator: "gone"})
	g.AddLink(Link{From: a2, To: c, Creator: "i3"})
	g.AddLink(Link{From: b, To: c, Creator: "i2"})
	removed := g.RemoveInstance("gone")
	if len(removed) != 2 {
		t.Fatalf("removed %d links, want 2", len(removed))
	}
	// The b—c link survives.
	if got := g.CO(b); !reflect.DeepEqual(got, []ObjectRef{c}) {
		t.Errorf("CO(b) = %v", got)
	}
}

func TestLinksAndGroupLinks(t *testing.T) {
	g := NewGraph()
	a, b, c, d := ref("i1", "/a"), ref("i2", "/b"), ref("i3", "/c"), ref("i4", "/d")
	l1 := Link{From: b, To: a, Creator: "i2"}
	l2 := Link{From: a, To: c, Creator: "i1"}
	l3 := Link{From: d, To: ref("i5", "/e"), Creator: "i4"}
	g.AddLink(l1)
	g.AddLink(l2)
	g.AddLink(l3)
	if got := g.Links(); !reflect.DeepEqual(got, []Link{l2, l1, l3}) {
		t.Errorf("Links = %v", got)
	}
	if members, links := g.GroupLinks(c); !reflect.DeepEqual(members, []ObjectRef{a, b, c}) ||
		!reflect.DeepEqual(links, []Link{l2, l1}) {
		t.Errorf("GroupLinks(c) = %v, %v", members, links)
	}
	z := ref("i9", "/z")
	if members, links := g.GroupLinks(z); !reflect.DeepEqual(members, []ObjectRef{z}) || len(links) != 0 {
		t.Errorf("GroupLinks(uncoupled) = %v, %v", members, links)
	}
}

func TestGroups(t *testing.T) {
	g := NewGraph()
	g.AddLink(Link{From: ref("i1", "/a"), To: ref("i2", "/b"), Creator: "i1"})
	g.AddLink(Link{From: ref("i3", "/c"), To: ref("i4", "/d"), Creator: "i3"})
	g.AddLink(Link{From: ref("i4", "/d"), To: ref("i5", "/e"), Creator: "i3"})
	groups := g.Groups()
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if len(groups[0]) != 2 || len(groups[1]) != 3 {
		t.Errorf("group sizes = %d, %d", len(groups[0]), len(groups[1]))
	}
}

func TestObjectRefString(t *testing.T) {
	if got := ref("i1", "/a/b").String(); got != "i1:/a/b" {
		t.Errorf("String = %q", got)
	}
	l := Link{From: ref("i1", "/a"), To: ref("i2", "/b"), Creator: "i1"}
	if got := l.String(); got != "i1:/a -> i2:/b (by i1)" {
		t.Errorf("Link.String = %q", got)
	}
}

// Property: group membership is symmetric and reflexive-closed — for any
// random link set, b ∈ Group(a) iff a ∈ Group(b), and every member of
// Group(a) has the same group.
func TestPropGroupConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewGraph()
		objs := make([]ObjectRef, 8)
		for i := range objs {
			objs[i] = ref(string(rune('A'+i%4)), "/"+string(rune('a'+i)))
		}
		for i, n := 0, r.Intn(12); i < n; i++ {
			a, b := objs[r.Intn(len(objs))], objs[r.Intn(len(objs))]
			if a != b {
				g.AddLink(Link{From: a, To: b, Creator: a.Instance})
			}
		}
		for _, o := range objs {
			grp := g.Group(o)
			for _, m := range grp {
				if !reflect.DeepEqual(g.Group(m), grp) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: adding then removing the same links leaves the graph empty.
func TestPropAddRemoveInverse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewGraph()
		var links []Link
		for i, n := 0, r.Intn(10)+1; i < n; i++ {
			a := ref(string(rune('A'+r.Intn(3))), "/"+string(rune('a'+r.Intn(5))))
			b := ref(string(rune('A'+r.Intn(3))), "/"+string(rune('a'+r.Intn(5))))
			if a == b {
				continue
			}
			l := Link{From: a, To: b, Creator: a.Instance}
			if g.AddLink(l) == nil {
				links = append(links, l)
			}
		}
		for _, l := range links {
			g.RemoveLink(l.From, l.To)
		}
		return g.Len() == 0 && len(g.Groups()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCOChain(b *testing.B) {
	g := NewGraph()
	const n = 100
	for i := 0; i < n-1; i++ {
		g.AddLink(Link{
			From:    ref("i", string(rune('a'+i%26))+string(rune('0'+i/26))),
			To:      ref("i", string(rune('a'+(i+1)%26))+string(rune('0'+(i+1)/26))),
			Creator: "i",
		})
	}
	start := ref("i", "a0")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := g.CO(start); len(got) != n-1 {
			b.Fatalf("CO = %d members", len(got))
		}
	}
}
