package patternfusion

import (
	"repro/internal/dataset"
	"repro/internal/seq"
	"repro/internal/seqfusion"
)

// The sequence extension (the paper's Section 8 future-work direction):
// Pattern-Fusion over subsequence patterns, with support-set closures
// computed by weighted-LCS folding. See internal/seq for the full design
// discussion. It is the "seqfusion" registry algorithm: build the
// dataset with NewSequences and run MineWith(ctx, SeqFusion, d, opts).
// The miner reads the dataset's ordered view — or, for a dataset built
// without one, its canonical transactions read as ascending sequences —
// and its Report carries the Δ quality estimate.

// SeqFusion is the registry name of the sequence miner.
const SeqFusion = seqfusion.Name

// Sequence is an ordered list of event IDs.
type Sequence = seq.Sequence

// NewSequences builds a Dataset over ordered rows (event IDs, repeats
// allowed; IDs must be non-negative). The itemset view holds each row's
// distinct events; the ordered view that SeqFusion mines is a private
// copy of rows.
func NewSequences(rows [][]int) (*Dataset, error) { return dataset.NewSequences(rows) }

// LCS returns a longest common subsequence of a and b.
func LCS(a, b Sequence) Sequence { return seq.LCS(a, b) }
