package main

import (
	"fmt"

	"ofence/internal/corpus"
	"ofence/internal/ofence"
	"ofence/internal/sitegen"
)

// treeExpect is the ground truth a tree analysis is checked against,
// taken from the generator's labels, never from the analyzer.
type treeExpect struct {
	// paired lists functions that must have a barrier site in a pairing.
	paired []string
	// partners lists (mp-writer, reader) pairs that must share a pairing.
	partners [][2]string
}

// treeExpectations reads the labels of tr. With corrupt set, the first
// mp-writer is given a wrong partner, so every check must fail.
func treeExpectations(tr *sitegen.Tree, corrupt bool) treeExpect {
	var e treeExpect
	var noise string
	for _, f := range tr.Files {
		for _, l := range tr.Labels[f.Name] {
			if l.ExpectPaired {
				e.paired = append(e.paired, l.Fn)
			}
			if l.Kind == "mp-writer" {
				e.partners = append(e.partners, [2]string{l.Fn, l.Partner})
			}
			if l.Kind == "noise" && noise == "" {
				noise = l.Fn
			}
		}
	}
	if corrupt && len(e.partners) > 0 {
		e.partners[0][1] = noise
	}
	return e
}

// check verifies one analysis result against the labels.
func (e treeExpect) check(v *ofence.ResultView) error {
	in := map[string][]int{}
	for i, pg := range v.Pairings {
		for _, s := range pg.Sites {
			in[s.Function] = append(in[s.Function], i)
		}
	}
	for _, fn := range e.paired {
		if len(in[fn]) == 0 {
			return fmt.Errorf("%s is labelled paired but has no site in any pairing", fn)
		}
	}
	for _, p := range e.partners {
		if !shareAny(in[p[0]], in[p[1]]) {
			return fmt.Errorf("mp-writer %s shares no pairing with its partner %s", p[0], p[1])
		}
	}
	return nil
}

func shareAny(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// deviation is one injected bug of a flat corpus: the functions of its
// pattern and the finding kind the analysis must report on one of them.
type deviation struct {
	file string
	fns  []string
	kind string
}

// truthKinds maps corpus truth labels to the finding kinds of -json.
var truthKinds = map[string]ofence.FindingKind{
	"misplaced":     ofence.MisplacedAccess,
	"repeated-read": ofence.RepeatedRead,
	"wrong-type":    ofence.WrongBarrierType,
	"unneeded":      ofence.UnneededBarrier,
}

// corpusDeviations lists c's injected deviations. With corrupt set, the
// first one expects a kind the analysis will not report.
func corpusDeviations(c *corpus.Corpus, corrupt bool) []deviation {
	var out []deviation
	for _, t := range c.Truths {
		k, ok := truthKinds[t.ExpectFinding]
		if !ok {
			continue
		}
		fns := append([]string{t.WriterFn, t.ReaderFn}, t.OtherFns...)
		out = append(out, deviation{file: t.File, fns: fns, kind: k.String()})
	}
	if corrupt && len(out) > 0 {
		out[0].kind = ofence.MissingOnce.String()
	}
	return out
}

// checkDeviations verifies that every deviation whose file is in files is
// reported with its labelled kind; files == nil means every deviation.
func checkDeviations(v *ofence.ResultView, devs []deviation, files map[string]string) error {
	found := map[[2]string]bool{}
	for _, f := range v.Findings {
		found[[2]string{f.Function, f.Kind}] = true
	}
	for _, d := range devs {
		if files != nil {
			if _, ok := files[d.file]; !ok {
				continue
			}
		}
		hit := false
		for _, fn := range d.fns {
			if fn != "" && found[[2]string{fn, d.kind}] {
				hit = true
				break
			}
		}
		if !hit {
			return fmt.Errorf("deviation in %s (%v) not reported as %q", d.file, d.fns, d.kind)
		}
	}
	return nil
}
