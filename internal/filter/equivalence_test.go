package filter

import (
	"fmt"
	"math/rand"
	"testing"

	"webwave/internal/core"
)

// TestTableMatchesSemanticRouter ties the two layers of the architecture
// together: the byte-level filter table (what a WebWave router would run)
// must reach exactly the same extract/pass verdicts as the semantic
// decision the live server takes after decoding — membership in the set of
// documents it has admitted — for the same installed document set.
func TestTableMatchesSemanticRouter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const treeID = 11

	sem := make(map[core.DocID]bool)
	tbl := NewTable(treeID, CompileOptions{})

	var installed []core.DocID
	for i := 0; i < 50; i++ {
		doc := core.DocID(fmt.Sprintf("site/%d/page-%d.html", i%5, i))
		installed = append(installed, doc)
		sem[doc] = true
		tbl.Install(doc)
	}
	// Remove a third of them again from both layers.
	for i := 0; i < len(installed); i += 3 {
		delete(sem, installed[i])
		tbl.Remove(installed[i])
	}

	probe := func(doc core.DocID) {
		t.Helper()
		pkt := EncodeRequest(treeID, doc, uint32(rng.Intn(100)), rng.Uint64())
		_, _, tblVerdict := tbl.Classify(pkt)
		if sem[doc] != tblVerdict {
			t.Errorf("doc %q: installed set extract=%v, filter table extract=%v",
				doc, sem[doc], tblVerdict)
		}
	}
	for _, doc := range installed {
		probe(doc)
	}
	for i := 0; i < 50; i++ {
		probe(core.DocID(fmt.Sprintf("other/%d", i)))
	}
}
