// Package fpgrowth implements the FP-growth frequent itemset miner of Han,
// Pei & Yin (SIGMOD'00) on top of the FP-tree of package fptree. It mines
// the complete frequent set by recursively building conditional trees, with
// the single-path combination short-circuit.
//
// In this repository FP-growth is a baseline and an independent oracle: the
// cross-check tests require Apriori, FP-growth and Eclat to produce
// identical complete sets on randomized databases.
//
// Mining runs on Options.Parallelism workers: each header item of the
// root FP-tree seeds an independent conditional tree, so the root items
// are the task units on the shared engine.Tasks work-stealing scheduler —
// the same decomposition parallel FP-growth implementations use. Per-task
// itemsets merge in task order before the canonical sort, so the result
// is bit-identical for every worker count.
package fpgrowth

import (
	"context"
	"sort"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/fptree"
	"repro/internal/itemset"
)

// ItemsetCount is a frequent itemset with its support count. FP-growth is a
// horizontal miner, so unlike the vertical miners it reports counts rather
// than materialized TID sets.
type ItemsetCount struct {
	Items itemset.Itemset
	Count int
}

// Options configures a mining run.
type Options struct {
	MinCount    int             // absolute minimum support count (≥ 1)
	MaxSize     int             // only report itemsets up to this size; 0 = unbounded
	Parallelism int             // worker goroutines; 0 = all CPUs; results identical for any value
	Observer    engine.Observer // optional progress events, every engine.ProgressStride nodes
}

// Result is the outcome of a mining run.
type Result struct {
	Itemsets []ItemsetCount
	Stopped  bool
}

// mineOpts runs FP-growth under the given options. Cancellation is polled
// on ctx at every conditional-tree node; a canceled run returns the
// itemsets found so far with Stopped=true.
func mineOpts(ctx context.Context, d *dataset.Dataset, opts Options) *Result {
	return mineRange(ctx, d, opts, 0, -1)
}

// mineRange mines the root header items [lo, hi); hi < 0 selects all of
// them. It backs both mineOpts and the engine.Sharder adapter. A
// single-path root is one task unit: the only valid shard is [0, 1) and
// it runs the whole combination enumeration.
func mineRange(ctx context.Context, d *dataset.Dataset, opts Options, lo, hi int) *Result {
	if opts.MinCount < 1 {
		opts.MinCount = 1
	}
	res := &Result{}
	tree := fptree.Build(d, opts.MinCount)
	meter := engine.NewMeter(ctx, Name, opts.Observer)

	if path := tree.SinglePath(); path != nil {
		// Degenerate root: all patterns are sub-combinations of one chain.
		m := &miner{meter: meter, opts: opts, res: res}
		if !m.visit(0) {
			m.combinations(path, nil)
		}
		res.Stopped = m.res.Stopped
	} else {
		// One task per root header item — the roots of the conditional
		// trees; the shared parent tree is read-only across workers.
		items := tree.Items()
		if hi < 0 {
			hi = len(items)
		}
		perTask := make([]*Result, hi-lo)
		stopped := engine.Tasks(ctx, engine.Workers(opts.Parallelism), hi-lo, func(_, task int) {
			sub := &Result{}
			m := &miner{meter: meter, opts: opts, res: sub}
			m.growFrom(tree, nil, items[lo+task])
			perTask[task] = sub
		})
		for _, sub := range perTask {
			if sub == nil {
				stopped = true // abandoned after cancellation
				continue
			}
			res.Itemsets = append(res.Itemsets, sub.Itemsets...)
			stopped = stopped || sub.Stopped
		}
		res.Stopped = stopped
	}
	// Deterministic presentation order.
	sort.Slice(res.Itemsets, func(i, j int) bool {
		return itemset.Compare(res.Itemsets[i].Items, res.Itemsets[j].Items) < 0
	})
	return res
}

type miner struct {
	meter *engine.Meter
	opts  Options
	res   *Result
}

// visit records one conditional-tree node with the meter and latches
// cancellation into the result.
func (m *miner) visit(newPatterns int) bool {
	if m.meter.Visit(newPatterns) {
		m.res.Stopped = true
	}
	return m.res.Stopped
}

func (m *miner) emit(items itemset.Itemset, count int) {
	if m.opts.MaxSize > 0 && len(items) > m.opts.MaxSize {
		return
	}
	m.meter.Emitted(1)
	m.res.Itemsets = append(m.res.Itemsets, ItemsetCount{Items: items, Count: count})
}

// grow mines tree conditioned on suffix (the itemset accumulated so far).
func (m *miner) grow(tree *fptree.Tree, suffix itemset.Itemset) {
	if m.visit(0) {
		return
	}
	if m.opts.MaxSize > 0 && len(suffix) >= m.opts.MaxSize {
		return
	}
	if path := tree.SinglePath(); path != nil {
		m.combinations(path, suffix)
		return
	}
	for _, item := range tree.Items() {
		m.growFrom(tree, suffix, item)
		if m.res.Stopped {
			return
		}
	}
}

// growFrom mines the single header item of tree: it emits suffix ∪ {item}
// and recurses into item's conditional tree. It is both the body of grow's
// loop and the unit of parallel work (the root tree decomposes into one
// growFrom per header item).
func (m *miner) growFrom(tree *fptree.Tree, suffix itemset.Itemset, item int) {
	if m.visit(0) {
		return
	}
	count := tree.Counts[item]
	if count < m.opts.MinCount {
		return
	}
	newSuffix := suffix.Add(item)
	m.emit(newSuffix, count)
	if m.opts.MaxSize > 0 && len(newSuffix) >= m.opts.MaxSize {
		return
	}
	cond := tree.ConditionalTree(item, m.opts.MinCount)
	if !cond.Empty() {
		m.grow(cond, newSuffix)
	}
}

// combinations emits suffix ∪ S for every non-empty subset S of the single
// path, with support equal to the count of the deepest node of S.
func (m *miner) combinations(path []*fptree.Node, suffix itemset.Itemset) {
	n := len(path)
	limit := n
	if m.opts.MaxSize > 0 {
		budget := m.opts.MaxSize - len(suffix)
		if budget < limit {
			limit = budget
		}
	}
	if limit <= 0 {
		return
	}
	// Depth-first subset enumeration keeping track of the minimum count
	// (counts are non-increasing along the path, so the deepest chosen node
	// has the minimum).
	var rec func(start int, chosen itemset.Itemset)
	rec = func(start int, chosen itemset.Itemset) {
		for i := start; i < n; i++ {
			next := chosen.Add(path[i].Item)
			m.emit(suffix.Union(next), path[i].Count)
			if len(next) < limit {
				rec(i+1, next)
			}
		}
	}
	rec(0, nil)
}
