package dataset

import (
	"math"
	"strings"
	"testing"

	"repro/internal/itemset"
	"repro/internal/rng"
	"repro/internal/tidset"
)

// paperDB is the transaction database of Figure 3: four distinct
// transactions, each duplicated 100 times, over items a=0, b=1, c=2, e=3,
// f=4.
func paperDB(t *testing.T) *Dataset {
	t.Helper()
	var txns [][]int
	rows := [][]int{
		{0, 1, 3},       // (abe)
		{1, 2, 4},       // (bcf)
		{0, 2, 4},       // (acf)
		{0, 1, 2, 3, 4}, // (abcef)
	}
	for _, row := range rows {
		for i := 0; i < 100; i++ {
			txns = append(txns, row)
		}
	}
	return MustNew(txns)
}

func TestNewBasics(t *testing.T) {
	d := MustNew([][]int{{3, 1, 1, 2}, {}, {0}})
	if d.Size() != 3 {
		t.Fatalf("Size = %d", d.Size())
	}
	if d.NumItems() != 4 {
		t.Fatalf("NumItems = %d", d.NumItems())
	}
	if !d.Transaction(0).Equal(itemset.Itemset{1, 2, 3}) {
		t.Fatalf("transaction not canonicalized: %v", d.Transaction(0))
	}
	if len(d.Transaction(1)) != 0 {
		t.Fatal("empty transaction lost")
	}
}

func TestNewRejectsNegativeItems(t *testing.T) {
	if _, err := New([][]int{{1, -2}}); err == nil {
		t.Fatal("negative item accepted")
	}
}

func TestNewSequences(t *testing.T) {
	if _, err := NewSequences([][]int{{1, -2}}); err == nil {
		t.Fatal("negative event accepted")
	}
	rows := [][]int{{3, 1, 3}, {2, 1}}
	d, err := NewSequences(rows)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Transaction(0).Equal(itemset.Itemset{1, 3}) {
		t.Fatalf("itemset view = %v, want (1 3)", d.Transaction(0))
	}
	rows[0][0] = 9 // the ordered view must not alias the caller's rows
	if got := d.Sequences()[0]; len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("ordered view = %v, want [3 1 3]", got)
	}
}

func TestEmptyDataset(t *testing.T) {
	d := MustNew(nil)
	if d.Size() != 0 || d.NumItems() != 0 {
		t.Fatal("empty dataset has nonzero size")
	}
	if d.Support(itemset.Itemset{1}) != 0 {
		t.Fatal("support in empty dataset nonzero")
	}
}

func TestSupportCounts(t *testing.T) {
	d := paperDB(t)
	cases := []struct {
		alpha []int
		want  int
	}{
		{[]int{0}, 300},       // a: abe, acf, abcef
		{[]int{0, 1}, 200},    // ab: abe, abcef
		{[]int{0, 1, 3}, 200}, // abe
		{[]int{1, 2, 4}, 200}, // bcf
		{[]int{0, 1, 2, 3, 4}, 100},
		{[]int{3, 4}, 100}, // ef only in abcef
		{nil, 400},         // empty itemset in every transaction
	}
	for _, c := range cases {
		if got := d.SupportCount(itemset.Canonical(c.alpha)); got != c.want {
			t.Errorf("SupportCount(%v) = %d, want %d", c.alpha, got, c.want)
		}
	}
}

func TestSupportOfUnknownItem(t *testing.T) {
	d := paperDB(t)
	if got := d.SupportCount(itemset.Itemset{99}); got != 0 {
		t.Fatalf("unknown item support = %d", got)
	}
	if got := d.SupportCount(itemset.Itemset{0, 99}); got != 0 {
		t.Fatalf("itemset with unknown item support = %d", got)
	}
	if d.ItemTIDs(99) != nil {
		t.Fatal("ItemTIDs out of universe should be nil")
	}
}

func TestRelativeSupport(t *testing.T) {
	d := paperDB(t)
	if got := d.Support(itemset.Itemset{0}); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Support(a) = %v, want 0.75", got)
	}
}

func TestMinCount(t *testing.T) {
	d := paperDB(t) // 400 transactions
	cases := []struct {
		sigma float64
		want  int
	}{
		{0, 1},
		{0.5, 200},
		{0.25, 100},
		{0.003, 2}, // ceil(1.2)
		{1, 400},
	}
	for _, c := range cases {
		if got := d.MinCount(c.sigma); got != c.want {
			t.Errorf("MinCount(%v) = %d, want %d", c.sigma, got, c.want)
		}
	}
}

func TestClosure(t *testing.T) {
	d := paperDB(t)
	// (e) appears in abe and abcef; intersection = abe → closure(e) = {a,b,e}.
	got := d.Closure(itemset.Itemset{3})
	if !got.Equal(itemset.Itemset{0, 1, 3}) {
		t.Fatalf("Closure(e) = %v, want (a b e)", got)
	}
	// closure of a full transaction is itself.
	full := itemset.Itemset{0, 1, 2, 3, 4}
	if !d.Closure(full).Equal(full) {
		t.Fatal("closure of abcef not itself")
	}
	// closure of an infrequent set is itself.
	if got := d.Closure(itemset.Itemset{99}); !got.Equal(itemset.Itemset{99}) {
		t.Fatalf("closure of unsupported set = %v", got)
	}
}

func TestFrequentItems(t *testing.T) {
	d := paperDB(t)
	got := d.FrequentItems(300)
	// a:300, b:300, c:300, e:200, f:300
	want := []int{0, 1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("FrequentItems(300) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FrequentItems(300) = %v", got)
		}
	}
}

func TestComputeStats(t *testing.T) {
	d := MustNew([][]int{{0, 1}, {2}, {}})
	s := d.ComputeStats()
	if s.Transactions != 3 || s.DistinctItems != 3 || s.UniverseSize != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MinTxnLen != 0 || s.MaxTxnLen != 2 || math.Abs(s.AvgTxnLen-1.0) > 1e-12 {
		t.Fatalf("stats lengths = %+v", s)
	}
	if !strings.Contains(s.String(), "transactions=3") {
		t.Fatalf("Stats.String = %q", s.String())
	}
}

func TestPattern(t *testing.T) {
	d := paperDB(t)
	p := NewPattern(d, itemset.Itemset{0, 1})
	q := NewPattern(d, itemset.Itemset{1, 2})
	if p.Support() != 200 || q.Support() != 200 {
		t.Fatalf("supports %d, %d", p.Support(), q.Support())
	}
	// D_ab = {abe, abcef}, D_bc = {bcf, abcef}: |∩|=100, |∪|=300.
	if got := p.Distance(q); math.Abs(got-(1-100.0/300)) > 1e-12 {
		t.Fatalf("Distance = %v", got)
	}
	if p.Size() != 2 {
		t.Fatalf("Size = %d", p.Size())
	}
	if !strings.Contains(p.String(), ":200") {
		t.Fatalf("String = %q", p.String())
	}
}

func TestSortAndDedupPatterns(t *testing.T) {
	d := paperDB(t)
	ps := []*Pattern{
		NewPattern(d, itemset.Itemset{0}),
		NewPattern(d, itemset.Itemset{0, 1, 3}),
		NewPattern(d, itemset.Itemset{0}),
		NewPattern(d, itemset.Itemset{3, 4}),
	}
	ps = DedupPatterns(ps)
	if len(ps) != 3 {
		t.Fatalf("DedupPatterns kept %d", len(ps))
	}
	SortPatterns(ps)
	if len(ps[0].Items) != 3 {
		t.Fatalf("sort order wrong: %v", ps[0].Items)
	}
	sets := Itemsets(ps)
	if len(sets) != 3 || !sets[0].Equal(itemset.Itemset{0, 1, 3}) {
		t.Fatalf("Itemsets projection wrong: %v", sets)
	}
}

func TestTIDSetMatchesNaiveScan(t *testing.T) {
	d := paperDB(t)
	alpha := itemset.Itemset{0, 2}
	tids := d.TIDSet(alpha)
	for tid := 0; tid < d.Size(); tid++ {
		want := alpha.SubsetOf(d.Transaction(tid))
		if tids.Test(tid) != want {
			t.Fatalf("TIDSet disagrees with scan at tid %d", tid)
		}
	}
}

// closerRows returns nTxn random rows over nItems items. Each item takes
// its own density byte (cycled over the items): its frequency is
// byte/255, so columns mix the dense and sparse TID-set representations
// once nTxn is past 64 rows, and an odd byte makes the item (after the
// first) copy the previous item's membership in all but about one row in
// sixteen, which yields nested and nearly nested columns. One row in
// eight is left empty.
func closerRows(r *rng.RNG, nTxn, nItems int, density []byte) [][]int {
	rows := make([][]int, nTxn)
	for i := range rows {
		if r.Intn(8) == 0 {
			continue
		}
		prev := false
		for it := 0; it < nItems; it++ {
			b := density[it%len(density)]
			in := prev
			if it == 0 || b&1 == 0 || r.Intn(16) == 0 {
				in = r.Intn(255) < int(b)
			}
			if in {
				rows[i] = append(rows[i], it)
			}
			prev = in
		}
	}
	return rows
}

// closerCase is one support set of the Closer differential and the
// closure it must produce.
type closerCase struct {
	tids *tidset.Set
	want itemset.Itemset
}

// closerCases lists the Closer differential's support sets: D_α for the
// empty itemset (D_∅ holds every row, empty ones too), every item and
// every pair of items, each expecting the oracle Dataset.Closure(α); and,
// for each D_α of two or more rows, a dense set of every other member of
// D_α, expecting the intersection of its rows. The thinned sets stand for
// the small dense support sets that intersecting dense columns produces,
// which are the dense sets that meet sparse columns at least their size.
func closerCases(d *Dataset) []closerCase {
	probes := []itemset.Itemset{{}}
	for a := 0; a < d.NumItems(); a++ {
		probes = append(probes, itemset.Itemset{a})
		for b := a + 1; b < d.NumItems(); b++ {
			probes = append(probes, itemset.Itemset{a, b})
		}
	}
	var cases []closerCase
	for _, alpha := range probes {
		tids := d.TIDSet(alpha)
		cases = append(cases, closerCase{tids, d.Closure(alpha)})
		if tids.Count() < 2 {
			continue
		}
		members := tids.Indices()
		kept := make([]bool, d.Size())
		want := d.Transaction(members[0]).Clone()
		for k := 0; k < len(members); k += 2 {
			kept[members[k]] = true
			want = want.Intersect(d.Transaction(members[k]))
		}
		thin := tidset.Full(d.Size())
		for tid, keep := range kept {
			if !keep {
				thin.Remove(tid)
			}
		}
		cases = append(cases, closerCase{thin, want})
	}
	return cases
}

// checkCloser compares Closer.Closure with the case's expected closure.
// On an empty support Dataset.Closure(α) returns α itself while the
// Closer, which sees only the TID set, returns nil; both mean "no
// supporting transactions".
func checkCloser(t *testing.T, d *Dataset, c *Closer, cs closerCase) {
	t.Helper()
	got := c.Closure(cs.tids)
	if cs.tids.Empty() {
		if got != nil {
			t.Fatalf("Closure of empty support = %v, want nil", got)
		}
		return
	}
	if !got.Equal(cs.want) {
		t.Fatalf("vertical closure of %v over %d rows = %v, want %v", cs.tids, d.Size(), got, cs.want)
	}
}

// TestCloserMatchesClosure is the differential test for the vertical
// closure probe: on random datasets of 5–44 and 65–300 rows, Closer.Closure
// must produce the expected closure of every case of closerCases. It also
// asserts that the trials reached the cases the probe can get wrong: a
// multi-word dense support set against a sparse column and a sparse
// support set against a dense one (both with a column at least as large
// that still misses a TID, so neither the cardinality shortcut nor a
// trivial subset decides), the same for two sparse sets of two or more
// members, empty transactions, and a support set whose first transaction
// is not its shortest row.
func TestCloserMatchesClosure(t *testing.T) {
	r := rng.New(11)
	var denseInSparse, sparseInDense, sparseInSparse, emptyRow, longFirst bool
	for trial := 0; trial < 60; trial++ {
		nTxn := 5 + r.Intn(40)
		if trial%2 == 1 {
			nTxn = 65 + r.Intn(236)
		}
		nItems := 3 + r.Intn(14)
		density := []byte{3, 12, 5, 200, 251, byte(r.Intn(256))}
		d := MustNew(closerRows(r, nTxn, nItems, density))
		closer := NewCloser(d)
		for _, cs := range closerCases(d) {
			checkCloser(t, d, closer, cs)
			tids := cs.tids
			first := tids.NextSet(0)
			if first < 0 {
				continue
			}
			row := d.Transaction(first)
			emptyRow = emptyRow || len(row) == 0
			tids.ForEach(func(tid int) { longFirst = longFirst || len(d.Transaction(tid)) < len(row) })
			for _, it := range row {
				col := d.ItemTIDs(it)
				if col.Count() < tids.Count() || col.AndCount(tids) == tids.Count() || d.Size() <= 64 {
					continue
				}
				denseInSparse = denseInSparse || tids.IsDense() && !col.IsDense()
				sparseInDense = sparseInDense || !tids.IsDense() && col.IsDense()
				sparseInSparse = sparseInSparse || !tids.IsDense() && !col.IsDense() && tids.Count() >= 2
			}
		}
	}
	if !denseInSparse || !sparseInDense || !sparseInSparse || !emptyRow || !longFirst {
		t.Fatalf("coverage: dense-in-sparse %v, sparse-in-dense %v, sparse-in-sparse %v, empty row %v, long first row %v",
			denseInSparse, sparseInDense, sparseInSparse, emptyRow, longFirst)
	}
}

// FuzzCloser runs the Closer differential of TestCloserMatchesClosure on
// fuzzer-chosen datasets: the row count (1–300), the item count (1–16),
// the per-item frequencies and the row-generator seed.
func FuzzCloser(f *testing.F) {
	f.Add(uint16(70), uint8(6), []byte{3, 250, 12, 200}, uint64(1))
	f.Add(uint16(300), uint8(12), []byte{1, 255, 128}, uint64(2))
	f.Add(uint16(9), uint8(4), []byte{0}, uint64(3))
	f.Fuzz(func(t *testing.T, nTxn uint16, nItems uint8, density []byte, seed uint64) {
		if len(density) == 0 {
			density = []byte{128}
		}
		rows := closerRows(rng.New(seed), int(nTxn)%300+1, int(nItems)%16+1, density)
		d := MustNew(rows)
		closer := NewCloser(d)
		for _, cs := range closerCases(d) {
			checkCloser(t, d, closer, cs)
		}
	})
}

// TestCloserReusesBuffer documents the aliasing contract: the returned
// itemset is invalidated by the next Closure call.
func TestCloserReusesBuffer(t *testing.T) {
	d := paperDB(t)
	closer := NewCloser(d)
	a := closer.Closure(d.TIDSet(itemset.Itemset{0, 1, 3}))
	cloned := a.Clone()
	closer.Closure(d.TIDSet(itemset.Itemset{2}))
	if !cloned.Equal(d.Closure(itemset.Itemset{0, 1, 3})) {
		t.Fatal("cloned closure corrupted")
	}
}

// TestPatternSupportMemo pins the support cache semantics: constructors
// memoize, struct literals fall back to counting, SetSupport/Invalidate
// behave as documented.
func TestPatternSupportMemo(t *testing.T) {
	d := paperDB(t)
	p := NewPattern(d, itemset.Itemset{0, 1})
	if p.Support() != 200 {
		t.Fatalf("Support = %d, want 200", p.Support())
	}
	lit := &Pattern{Items: itemset.Itemset{0, 1}, TIDs: d.TIDSet(itemset.Itemset{0, 1})}
	if lit.Support() != 200 {
		t.Fatalf("literal Support = %d, want 200", lit.Support())
	}
	// A literal pattern must not cache: mutating TIDs in place is visible.
	lit.TIDs.Remove(lit.TIDs.NextSet(0))
	if lit.Support() != 199 {
		t.Fatalf("literal Support after Clear = %d, want 199", lit.Support())
	}
	// A constructor-built pattern caches; invalidation re-counts.
	p.TIDs.Remove(p.TIDs.NextSet(0))
	if p.Support() != 200 {
		t.Fatalf("cached Support changed without invalidation: %d", p.Support())
	}
	p.InvalidateSupport()
	if p.Support() != 199 {
		t.Fatalf("Support after invalidation = %d, want 199", p.Support())
	}
	p.SetSupport(42)
	if p.Support() != 42 {
		t.Fatalf("SetSupport not honored: %d", p.Support())
	}
	q := NewPatternCounted(itemset.Itemset{7}, d.TIDSet(itemset.Itemset{0}), 100)
	if q.Support() != 100 {
		t.Fatalf("NewPatternCounted Support = %d", q.Support())
	}
	e := &Pattern{Items: nil, TIDs: d.TIDSet(itemset.Itemset{0, 1, 2, 3, 4})}
	e.EnsureSupport()
	if e.Support() != 100 {
		t.Fatalf("EnsureSupport = %d, want 100", e.Support())
	}
}

// TestDedupPatternsMatchesStringKeys is the differential test for the
// fingerprint-keyed dedup: on randomized pattern lists it must keep exactly
// the patterns a string-keyed dedup keeps, in the same order.
func TestDedupPatternsMatchesStringKeys(t *testing.T) {
	r := rng.New(23)
	d := paperDB(t)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(60)
		ps := make([]*Pattern, 0, n)
		for i := 0; i < n; i++ {
			l := r.Intn(4)
			raw := make([]int, 0, l)
			for j := 0; j < l; j++ {
				raw = append(raw, r.Intn(5))
			}
			ps = append(ps, NewPattern(d, itemset.Canonical(raw)))
		}
		// Naive string-keyed dedup, first occurrence wins.
		seen := make(map[string]bool)
		var want []*Pattern
		for _, p := range ps {
			if !seen[p.Items.Key()] {
				seen[p.Items.Key()] = true
				want = append(want, p)
			}
		}
		got := DedupPatterns(ps)
		if len(got) != len(want) {
			t.Fatalf("trial %d: dedup kept %d, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: survivor %d is %v, want %v", trial, i, got[i].Items, want[i].Items)
			}
		}
	}
}
