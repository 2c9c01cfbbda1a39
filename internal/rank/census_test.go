package rank

import (
	"fmt"
	"reflect"
	"testing"

	"ofence/internal/access"
	"ofence/internal/sitegen"
)

// permutations returns orders of sites the census must not see: reversed,
// and a stride interleave (every third site, starting at 0, 1, then 2).
func permutations(sites []*access.Site) [][]*access.Site {
	rev := make([]*access.Site, len(sites))
	for i, s := range sites {
		rev[len(sites)-1-i] = s
	}
	var stride []*access.Site
	for start := 0; start < 3; start++ {
		for i := start; i < len(sites); i += 3 {
			stride = append(stride, sites[i])
		}
	}
	return [][]*access.Site{rev, stride}
}

// TestBuildIndexPermutationQuickcheck asserts the census depends only on
// the set of sites — identical interned IDs, per-object signature counts
// and totals, and therefore identical Support answers for every
// (object, site) query — over randomized synthetic workloads.
func TestBuildIndexPermutationQuickcheck(t *testing.T) {
	for _, seed := range []int64{1, 5, 42} {
		for _, n := range []int{0, 2, 50, 900} {
			sites := sitegen.Generate(sitegen.DefaultConfig(n, seed))
			base := BuildIndex(sites)
			for pi, perm := range permutations(sites) {
				x := BuildIndex(perm)
				label := fmt.Sprintf("seed=%d n=%d perm=%d", seed, n, pi)
				if base.Objects() != x.Objects() {
					t.Fatalf("%s: Objects %d vs %d", label, base.Objects(), x.Objects())
				}
				for id := 0; id < base.in.Len(); id++ {
					if base.in.Object(uint32(id)) != x.in.Object(uint32(id)) {
						t.Fatalf("%s: ID %d interned differently", label, id)
					}
					if base.total[id] != x.total[id] {
						t.Fatalf("%s: total[%d] = %d vs %d", label, id, base.total[id], x.total[id])
					}
					bm, xm := base.census[id], x.census[id]
					if len(bm) != len(xm) || (len(bm) > 0 && !reflect.DeepEqual(bm, xm)) {
						t.Fatalf("%s: census[%d] = %v vs %v", label, id, bm, xm)
					}
				}
				for _, s := range sites {
					for o := range s.Objects() {
						if a, b := base.Support(o, s), x.Support(o, s); a != b {
							t.Fatalf("%s: Support(%v) = %+v vs %+v", label, o, a, b)
						}
					}
				}
			}
		}
	}
}

// TestBuildIndexDegenerate covers empty and single-site inputs: no sites
// give an empty census, and one site's objects have no other sites and so
// no majority.
func TestBuildIndexDegenerate(t *testing.T) {
	if x := BuildIndex(nil); x.Objects() != 0 {
		t.Errorf("nil sites: %d objects", x.Objects())
	}
	sites := sitegen.Generate(sitegen.DefaultConfig(2, 1))
	x := BuildIndex(sites[:1])
	if x.Objects() != len(sites[0].Objects()) {
		t.Errorf("single site: %d objects, the site touches %d", x.Objects(), len(sites[0].Objects()))
	}
	for o := range sites[0].Objects() {
		if sp := x.Support(o, sites[0]); sp.Others != 0 || sp.Majority != 0 || sp.Deviates {
			t.Errorf("single site Support(%v) = %+v, want no others", o, sp)
		}
	}
}
