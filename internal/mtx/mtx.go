// Package mtx reads MatrixMarket coordinate files — the distribution
// format of the paper's test matrices (xyce680s, auto, apoa1-10, cage14
// are all published as .mtx) — and converts them into the column-net
// hypergraph model of Catalyurek & Aykanat [5] (ToHypergraph): vertex i =
// row i, net j = {j} ∪ {i : a_ij ≠ 0}, exact for sparse matrix-vector
// multiply communication, symmetric or not.
package mtx

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hyperbal/internal/hypergraph"
)

// Matrix is a parsed MatrixMarket coordinate pattern.
type Matrix struct {
	Rows, Cols int
	// Entries are (row, col) coordinates, 0-based, with explicit symmetric
	// counterparts already expanded when the header declared symmetry.
	// Diagonal entries are retained.
	RowIdx, ColIdx []int32
	Symmetric      bool
}

// NumEntries returns the number of stored (expanded) entries.
func (m *Matrix) NumEntries() int { return len(m.RowIdx) }

// Read parses a MatrixMarket coordinate file. Value fields (real, integer,
// complex) are accepted and ignored; only the pattern matters for
// partitioning. Supported qualifiers: general, symmetric (expanded),
// skew-symmetric (expanded, pattern-wise), pattern.
func Read(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)

	if !sc.Scan() {
		return nil, fmt.Errorf("mtx: empty input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("mtx: not a MatrixMarket matrix header: %q", sc.Text())
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("mtx: only coordinate format supported, got %q", header[2])
	}
	sym := false
	if len(header) >= 5 {
		switch header[4] {
		case "general":
		case "symmetric", "skew-symmetric", "hermitian":
			sym = true
		default:
			return nil, fmt.Errorf("mtx: unsupported symmetry %q", header[4])
		}
	}

	// size line (skipping comments)
	var rows, cols, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("mtx: bad size line %q: %v", line, err)
		}
		break
	}
	if rows <= 0 || cols <= 0 || nnz < 0 {
		return nil, fmt.Errorf("mtx: bad dimensions %dx%d nnz=%d", rows, cols, nnz)
	}

	m := &Matrix{Rows: rows, Cols: cols, Symmetric: sym}
	read := 0
	for sc.Scan() && read < nnz {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("mtx: bad entry line %q", line)
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("mtx: bad row index %q", fields[0])
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("mtx: bad column index %q", fields[1])
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("mtx: entry (%d,%d) outside %dx%d", i, j, rows, cols)
		}
		m.RowIdx = append(m.RowIdx, int32(i-1))
		m.ColIdx = append(m.ColIdx, int32(j-1))
		if sym && i != j {
			m.RowIdx = append(m.RowIdx, int32(j-1))
			m.ColIdx = append(m.ColIdx, int32(i-1))
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if read != nnz {
		return nil, fmt.Errorf("mtx: expected %d entries, found %d", nnz, read)
	}
	return m, nil
}

// ToHypergraph builds the column-net hypergraph model: vertices are rows;
// net j contains row j (the owner of x_j, for square matrices) plus every
// row with a nonzero in column j. Nets with fewer than two pins are
// dropped (never cut). Non-square matrices use only the nonzero rows per
// column (the rectangular column-net model).
func ToHypergraph(m *Matrix) (*hypergraph.Hypergraph, error) {
	b := hypergraph.NewBuilder(m.Rows)
	cols := make([][]int32, m.Cols)
	for e := range m.RowIdx {
		cols[m.ColIdx[e]] = append(cols[m.ColIdx[e]], m.RowIdx[e])
	}
	square := m.Rows == m.Cols
	var pins []int
	for j := 0; j < m.Cols; j++ {
		pins = pins[:0]
		seen := make(map[int32]struct{}, len(cols[j])+1)
		if square {
			seen[int32(j)] = struct{}{}
			pins = append(pins, j)
		}
		for _, i := range cols[j] {
			if _, dup := seen[i]; !dup {
				seen[i] = struct{}{}
				pins = append(pins, int(i))
			}
		}
		if len(pins) >= 2 {
			b.AddNet(1, pins...)
		}
	}
	return b.Build(), nil
}
