package cachestore

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"webwave/internal/core"
)

func body(n int) []byte { return make([]byte, n) }

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
		err  bool
	}{
		{"", LRU, false},
		{"lru", LRU, false},
		{"heat", Heat, false},
		{"gdsf", GDSF, false},
		{"mru", "", true},
	} {
		got, err := ParsePolicy(tc.in)
		if (err != nil) != tc.err {
			t.Fatalf("ParsePolicy(%q) err = %v", tc.in, err)
		}
		if err == nil && got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestBudgetNeverExceeded(t *testing.T) {
	const budget = 1 << 12
	for _, pol := range []Policy{LRU, Heat, GDSF} {
		t.Run(string(pol), func(t *testing.T) {
			s := New(Config{BudgetBytes: budget, Shards: 4, Policy: pol,
				HeatOf: func(core.DocID) float64 { return 1 }})
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 500; i++ {
				doc := core.DocID(fmt.Sprintf("d%03d", rng.Intn(64)))
				s.Put(doc, body(64+rng.Intn(512)))
				if b := s.Bytes(); b > budget {
					t.Fatalf("op %d: bytes %d exceed budget %d", i, b, budget)
				}
			}
			if s.MaxBytes() > budget {
				t.Fatalf("high-water %d exceeds budget %d", s.MaxBytes(), budget)
			}
			if st := s.Stats(); st.Evictions == 0 {
				t.Fatalf("expected eviction churn, got none (stats %+v)", st)
			}
			// Incremental accounting agrees with a full recount.
			var total int64
			s.ForEach(func(_ core.DocID, size int) bool { total += int64(size); return true })
			if total != s.Bytes() {
				t.Fatalf("recount %d != incremental %d", total, s.Bytes())
			}
		})
	}
}

func TestUnlimitedBudget(t *testing.T) {
	s := New(Config{})
	for i := 0; i < 100; i++ {
		if _, ok := s.Put(core.DocID(fmt.Sprintf("d%d", i)), body(1024)); !ok {
			t.Fatalf("unlimited store rejected put %d", i)
		}
	}
	if s.Len() != 100 || s.Bytes() != 100*1024 {
		t.Fatalf("len=%d bytes=%d, want 100 / %d", s.Len(), s.Bytes(), 100*1024)
	}
	if st := s.Stats(); st.Evictions != 0 {
		t.Fatalf("unlimited store evicted: %+v", st)
	}
}

func TestLRUVictimOrder(t *testing.T) {
	// One shard so the recency order is global. Budget fits 3 of 4 docs.
	s := New(Config{BudgetBytes: 300, Shards: 1, Policy: LRU})
	s.Put("a", body(100))
	s.Put("b", body(100))
	s.Put("c", body(100))
	s.Get("a") // a most recent; b is now LRU
	evs, ok := s.Put("d", body(100))
	if !ok || len(evs) != 1 || evs[0].Doc != "b" {
		t.Fatalf("want eviction of b, got %v ok=%v", evs, ok)
	}
}

// TestUnitEntryLRU covers the document-count LRU the simulators build from
// a store: one stripe, LRU, and a 1-byte body per entry, so the byte budget
// is a document capacity. Each script is a sequence of "+d" (put), "d"
// (get) and "-d" (delete); Docs() must list the survivors most recent
// first.
func TestUnitEntryLRU(t *testing.T) {
	many := make([]string, 200)
	for i := range many {
		many[i] = fmt.Sprintf("+d%d", i)
	}
	for _, tc := range []struct {
		name    string
		budget  int64
		script  []string
		docs    []core.DocID // nil: only the count in n is checked
		n       int
		evicted []core.DocID
	}{
		{name: "evicts the least recently used", budget: 2,
			script: strings.Fields("+a +b a +c"), docs: []core.DocID{"c", "a"}, evicted: []core.DocID{"b"}},
		{name: "put refreshes recency", budget: 2,
			script: strings.Fields("+a +b +a +c"), docs: []core.DocID{"c", "a"}, evicted: []core.DocID{"b"}},
		{name: "docs in most-recent-first order", budget: 3,
			script: strings.Fields("+a +b +c a"), docs: []core.DocID{"a", "c", "b"}},
		{name: "delete head and tail", budget: 3,
			script: strings.Fields("+a +b +c -c -a"), docs: []core.DocID{"b"}},
		{name: "capacity one", budget: 1,
			script: strings.Fields("+a +b"), docs: []core.DocID{"b"}, evicted: []core.DocID{"a"}},
		{name: "unlimited budget keeps everything", budget: 0, script: many, n: len(many)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Shards: 1, Policy: LRU, BudgetBytes: tc.budget})
			var evicted []core.DocID
			for _, op := range tc.script {
				switch op[0] {
				case '+':
					evs, ok := s.Put(core.DocID(op[1:]), []byte{0})
					if !ok {
						t.Fatalf("%s: put refused", op)
					}
					for _, ev := range evs {
						evicted = append(evicted, ev.Doc)
					}
				case '-':
					s.Delete(core.DocID(op[1:]))
				default:
					s.Get(core.DocID(op))
				}
			}
			got := s.Docs()
			if tc.docs != nil && !slices.Equal(got, tc.docs) {
				t.Fatalf("Docs() = %v, want %v", got, tc.docs)
			}
			if tc.docs == nil && len(got) != tc.n {
				t.Fatalf("holds %d docs, want %d", len(got), tc.n)
			}
			if !slices.Equal(evicted, tc.evicted) {
				t.Fatalf("evicted %v, want %v", evicted, tc.evicted)
			}
		})
	}
}

// TestUnitEntryLRURandomized: under random puts, gets and deletes a
// document-count LRU never holds more than its capacity, and Docs() lists
// each held document exactly once.
func TestUnitEntryLRURandomized(t *testing.T) {
	const capacity = 8
	rng := rand.New(rand.NewSource(1))
	s := New(Config{Shards: 1, Policy: LRU, BudgetBytes: capacity})
	for op := 0; op < 5000; op++ {
		doc := core.DocID(fmt.Sprintf("d%d", rng.Intn(30)))
		switch rng.Intn(3) {
		case 0:
			s.Put(doc, []byte{0})
		case 1:
			s.Get(doc)
		case 2:
			s.Delete(doc)
		}
		docs := s.Docs()
		if s.Len() > capacity || s.Bytes() != int64(s.Len()) {
			t.Fatalf("op %d: len %d, bytes %d (capacity %d)", op, s.Len(), s.Bytes(), capacity)
		}
		seen := make(map[core.DocID]bool, len(docs))
		for _, d := range docs {
			if seen[d] {
				t.Fatalf("op %d: %s listed twice in %v", op, d, docs)
			}
			seen[d] = true
		}
		if len(docs) != s.Len() {
			t.Fatalf("op %d: Docs() lists %d, Len %d", op, len(docs), s.Len())
		}
	}
}

func TestHeatEvictsColdestPerByte(t *testing.T) {
	heat := map[core.DocID]float64{"hot": 100, "warm": 10, "cold": 1}
	s := New(Config{BudgetBytes: 300, Shards: 1, Policy: Heat,
		HeatOf: func(d core.DocID) float64 { return heat[d] }})
	s.Put("cold", body(100))
	s.Put("hot", body(100))
	s.Put("warm", body(100))
	s.Get("cold") // recency would keep cold; heat must not
	evs, ok := s.Put("new", body(100))
	if !ok || len(evs) != 1 || evs[0].Doc != "cold" {
		t.Fatalf("want eviction of cold, got %v ok=%v", evs, ok)
	}
}

func TestHeatPerByteNormalization(t *testing.T) {
	// big has 4x the heat but 8x the size of small: worse rate-per-byte.
	heat := map[core.DocID]float64{"big": 40, "small": 10}
	s := New(Config{BudgetBytes: 1000, Shards: 1, Policy: Heat,
		HeatOf: func(d core.DocID) float64 { return heat[d] }})
	s.Put("big", body(800))
	s.Put("small", body(100))
	evs, ok := s.Put("new", body(200))
	if !ok || len(evs) != 1 || evs[0].Doc != "big" {
		t.Fatalf("want eviction of big (lowest heat/byte), got %v ok=%v", evs, ok)
	}
}

func TestGDSFFrequencyWins(t *testing.T) {
	s := New(Config{BudgetBytes: 300, Shards: 1, Policy: GDSF})
	s.Put("freq", body(100))
	s.Put("once", body(100))
	s.Put("twice", body(100))
	for i := 0; i < 8; i++ {
		s.Get("freq")
	}
	s.Get("twice")
	s.Get("once")
	evs, ok := s.Put("new", body(100))
	if !ok || len(evs) != 1 {
		t.Fatalf("want one eviction, got %v ok=%v", evs, ok)
	}
	if evs[0].Doc == "freq" {
		t.Fatalf("GDSF evicted the most frequent doc")
	}
}

func TestPinImmunity(t *testing.T) {
	s := New(Config{BudgetBytes: 200, Shards: 1, Policy: LRU})
	s.Pin("origin", body(150))
	// Only 50 budget bytes left; a 100-byte doc cannot fit and must be
	// rejected rather than displace the pinned origin.
	evs, ok := s.Put("guest", body(100))
	if ok || len(evs) != 0 {
		t.Fatalf("put over pinned bytes: evs=%v ok=%v, want rejection", evs, ok)
	}
	if !s.Contains("origin") {
		t.Fatalf("pinned origin evicted")
	}
	if _, ok := s.Put("tiny", body(40)); !ok {
		t.Fatalf("tiny doc should fit beside the pin")
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
}

func TestPinMayExceedBudget(t *testing.T) {
	s := New(Config{BudgetBytes: 100, Shards: 1})
	s.Pin("a", body(80))
	s.Pin("b", body(80))
	if s.Bytes() != 160 {
		t.Fatalf("pinned bytes = %d, want 160", s.Bytes())
	}
	if !s.Contains("a") || !s.Contains("b") {
		t.Fatalf("pins missing")
	}
}

func TestOversizeBodyRejected(t *testing.T) {
	s := New(Config{BudgetBytes: 1024, Shards: 4}) // shard budget 256
	if _, ok := s.Put("huge", body(500)); ok {
		t.Fatalf("body larger than a shard budget was accepted")
	}
	if s.Len() != 0 {
		t.Fatalf("rejected body cached anyway")
	}
}

func TestOversizePutRejectedWithoutEvicting(t *testing.T) {
	s := New(Config{BudgetBytes: 300, Shards: 1, Policy: LRU})
	s.Put("a", body(100))
	s.Put("b", body(100))
	// A new body that can never fit must be rejected up front: evicting
	// every resident first and rejecting anyway would trade the working
	// set for nothing.
	evs, ok := s.Put("huge", body(301))
	if ok || len(evs) != 0 {
		t.Fatalf("oversize put: evs=%v ok=%v, want clean rejection", evs, ok)
	}
	if !s.Contains("a") || !s.Contains("b") {
		t.Fatalf("oversize put evicted residents: a=%v b=%v", s.Contains("a"), s.Contains("b"))
	}
	if st := s.Stats(); st.Evictions != 0 || st.Rejected != 1 {
		t.Fatalf("stats after oversize put: %+v", st)
	}
}

func TestOversizeRefreshRejectedWithoutEvicting(t *testing.T) {
	s := New(Config{BudgetBytes: 300, Shards: 1, Policy: LRU})
	s.Put("a", body(100))
	s.Put("b", body(100))
	// Refreshing a to a body that can never fit must reject up front, not
	// wipe b first and reject anyway.
	evs, ok := s.Put("a", body(400))
	if ok || len(evs) != 0 {
		t.Fatalf("oversize refresh: evs=%v ok=%v, want clean rejection", evs, ok)
	}
	if !s.Contains("a") || !s.Contains("b") {
		t.Fatalf("oversize refresh evicted entries: a=%v b=%v", s.Contains("a"), s.Contains("b"))
	}
	if st := s.Stats(); st.Evictions != 0 || st.Rejected != 1 {
		t.Fatalf("stats after oversize refresh: %+v", st)
	}
}

func TestOversizePinnedRefreshAllowed(t *testing.T) {
	s := New(Config{BudgetBytes: 100, Shards: 1})
	s.Pin("origin", body(50))
	// The origin document grew past the budget: pinned copies must still
	// refresh (budget-exempt), or the home could not publish.
	if _, ok := s.Put("origin", body(400)); !ok {
		t.Fatalf("pinned refresh rejected")
	}
	if got, _ := s.Peek("origin"); len(got) != 400 {
		t.Fatalf("pinned body not refreshed: %d bytes", len(got))
	}
}

func TestRefreshAdjustsBytes(t *testing.T) {
	s := New(Config{BudgetBytes: 1000, Shards: 1})
	s.Put("a", body(100))
	s.Put("a", body(300))
	if s.Bytes() != 300 {
		t.Fatalf("bytes after grow = %d, want 300", s.Bytes())
	}
	s.Put("a", body(50))
	if s.Bytes() != 50 {
		t.Fatalf("bytes after shrink = %d, want 50", s.Bytes())
	}
}

func TestRefreshGrowEvictsOthers(t *testing.T) {
	s := New(Config{BudgetBytes: 300, Shards: 1, Policy: LRU})
	s.Put("a", body(100))
	s.Put("b", body(100))
	s.Put("c", body(100))
	// Growing c to 250 requires evicting a and b.
	evs, ok := s.Put("c", body(250))
	if !ok || len(evs) != 2 {
		t.Fatalf("grow refresh: evs=%v ok=%v, want 2 evictions", evs, ok)
	}
	if !s.Contains("c") || s.Bytes() != 250 {
		t.Fatalf("after grow: contains(c)=%v bytes=%d", s.Contains("c"), s.Bytes())
	}
}

func TestDelete(t *testing.T) {
	s := New(Config{BudgetBytes: 1000, Shards: 2})
	s.Put("a", body(100))
	s.Pin("p", body(100))
	if !s.Delete("a") || !s.Delete("p") || s.Delete("ghost") {
		t.Fatalf("delete results wrong")
	}
	if s.Bytes() != 0 || s.Len() != 0 {
		t.Fatalf("after deletes: bytes=%d len=%d", s.Bytes(), s.Len())
	}
}

func TestPeekDoesNotTouch(t *testing.T) {
	s := New(Config{BudgetBytes: 200, Shards: 1, Policy: LRU})
	s.Put("a", body(100))
	s.Put("b", body(100))
	s.Peek("a") // must NOT move a to the front
	evs, ok := s.Put("c", body(100))
	if !ok || len(evs) != 1 || evs[0].Doc != "a" {
		t.Fatalf("peek changed recency: evs=%v ok=%v", evs, ok)
	}
}

func TestDeterministicVictims(t *testing.T) {
	run := func(pol Policy) []core.DocID {
		s := New(Config{BudgetBytes: 2048, Shards: 4, Policy: pol,
			HeatOf: func(d core.DocID) float64 { return float64(len(d)) }})
		rng := rand.New(rand.NewSource(7))
		var evictedOrder []core.DocID
		for i := 0; i < 300; i++ {
			doc := core.DocID(fmt.Sprintf("doc-%0*d", 1+rng.Intn(4), rng.Intn(40)))
			if rng.Intn(3) == 0 {
				s.Get(doc)
				continue
			}
			evs, _ := s.Put(doc, body(64+rng.Intn(256)))
			for _, ev := range evs {
				evictedOrder = append(evictedOrder, ev.Doc)
			}
		}
		return evictedOrder
	}
	for _, pol := range []Policy{LRU, Heat, GDSF} {
		a, b := run(pol), run(pol)
		if len(a) != len(b) {
			t.Fatalf("%s: eviction streams differ in length (%d vs %d)", pol, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: eviction %d differs: %q vs %q", pol, i, a[i], b[i])
			}
		}
	}
}

// TestConcurrentBudgetAccounting hammers one store from many goroutines
// and verifies the incremental byte accounting and the budget invariant
// survive concurrent batch drains.
func TestConcurrentBudgetAccounting(t *testing.T) {
	const budget = 64 << 10
	s := New(Config{BudgetBytes: budget, Shards: 8, Policy: Heat,
		HeatOf: func(d core.DocID) float64 { return float64(len(d)) }})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				doc := core.DocID(fmt.Sprintf("d%03d", rng.Intn(256)))
				switch rng.Intn(4) {
				case 0:
					s.Get(doc)
				case 1:
					s.Delete(doc)
				default:
					s.Put(doc, body(64+rng.Intn(1024)))
				}
			}
		}(g)
	}
	wg.Wait()
	if b := s.Bytes(); b > budget {
		t.Fatalf("bytes %d exceed budget %d after concurrent churn", b, budget)
	}
	var total int64
	s.ForEach(func(_ core.DocID, size int) bool { total += int64(size); return true })
	if total != s.Bytes() {
		t.Fatalf("recount %d != incremental %d", total, s.Bytes())
	}
	if s.MaxBytes() > budget {
		t.Fatalf("high-water %d exceeds budget %d", s.MaxBytes(), budget)
	}
}

// TestVersionedCopies covers the per-copy version number: monotonic
// upgrades, downgrade refusal, and version preservation across unversioned
// refreshes.
func TestVersionedCopies(t *testing.T) {
	s := New(Config{Shards: 1})
	if _, ok := s.PutVersion("d", body(10), 3); !ok {
		t.Fatal("versioned insert refused")
	}
	if v, ok := s.Version("d"); !ok || v != 3 {
		t.Fatalf("Version = %d,%v want 3,true", v, ok)
	}
	// Downgrade refused, copy untouched.
	if _, ok := s.PutVersion("d", body(20), 2); ok {
		t.Fatal("downgrade accepted")
	}
	if b, v, ok := s.GetVersion("d"); !ok || v != 3 || len(b) != 10 {
		t.Fatalf("after downgrade: len=%d v=%d ok=%v", len(b), v, ok)
	}
	// Same-version refresh allowed (idempotent re-admit).
	if _, ok := s.PutVersion("d", body(12), 3); !ok {
		t.Fatal("same-version refresh refused")
	}
	// Upgrade advances.
	if _, ok := s.PutVersion("d", body(11), 7); !ok {
		t.Fatal("upgrade refused")
	}
	if v, _ := s.Version("d"); v != 7 {
		t.Fatalf("version after upgrade = %d, want 7", v)
	}
	// Unversioned Put keeps the version.
	if _, ok := s.Put("d", body(9)); !ok {
		t.Fatal("unversioned refresh refused")
	}
	if v, _ := s.Version("d"); v != 7 {
		t.Fatalf("version after unversioned refresh = %d, want 7", v)
	}
	// Pinned origin copies republish through PinVersion.
	s.Pin("origin", body(5))
	if !s.PinVersion("origin", body(6), 1) {
		t.Fatal("pin upgrade refused")
	}
	if s.PinVersion("origin", body(4), 0) {
		t.Fatal("pin downgrade accepted")
	}
	if v, ok := s.Version("origin"); !ok || v != 1 {
		t.Fatalf("pinned version = %d,%v want 1,true", v, ok)
	}
	// Missing docs report no version.
	if _, ok := s.Version("absent"); ok {
		t.Fatal("absent doc has a version")
	}
	if _, _, ok := s.GetVersion("absent"); ok {
		t.Fatal("absent doc GetVersion ok")
	}
}
