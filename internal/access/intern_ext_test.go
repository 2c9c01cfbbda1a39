package access_test

import (
	"fmt"
	"testing"

	"ofence/internal/access"
	"ofence/internal/sitegen"
)

// TestInternSitesPermutationQuickcheck asserts the interner assigns the
// same dense IDs — same object set, same canonical order — whatever the
// order of the sites, over randomized synthetic workloads: the sites
// reversed, and interleaved at strides 3 and 8.
func TestInternSitesPermutationQuickcheck(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 17, 99} {
		for _, n := range []int{0, 1, 7, 300, 1100} {
			sites := sitegen.Generate(sitegen.DefaultConfig(n, seed))
			base := access.InternSites(sites)
			for _, stride := range []int{-1, 3, 8} {
				perm := permute(sites, stride)
				in := access.InternSites(perm)
				label := fmt.Sprintf("seed=%d n=%d stride=%d", seed, n, stride)
				if base.Len() != in.Len() {
					t.Fatalf("%s: Len %d vs %d", label, base.Len(), in.Len())
				}
				for id := 0; id < base.Len(); id++ {
					if base.Object(uint32(id)) != in.Object(uint32(id)) {
						t.Fatalf("%s: ID %d bound to %v vs %v",
							label, id, base.Object(uint32(id)), in.Object(uint32(id)))
					}
				}
				for _, s := range sites {
					for o := range s.Objects() {
						a, aok := base.ID(o)
						b, bok := in.ID(o)
						if a != b || aok != bok {
							t.Fatalf("%s: ID(%v) = %d,%t vs %d,%t", label, o, a, aok, b, bok)
						}
					}
				}
			}
		}
	}
}

// permute returns sites reversed (stride -1) or interleaved: every
// stride-th site starting at 0, then at 1, and so on.
func permute(sites []*access.Site, stride int) []*access.Site {
	out := make([]*access.Site, 0, len(sites))
	if stride < 0 {
		for i := len(sites) - 1; i >= 0; i-- {
			out = append(out, sites[i])
		}
		return out
	}
	for start := 0; start < stride; start++ {
		for i := start; i < len(sites); i += stride {
			out = append(out, sites[i])
		}
	}
	return out
}
