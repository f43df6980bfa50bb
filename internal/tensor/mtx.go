package tensor

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadMatrixMarket parses a sparse matrix in Matrix Market coordinate format
// (the SuiteSparse distribution format used throughout the paper's
// evaluation). Supported qualifiers: real/integer/pattern and
// general/symmetric.
func ReadMatrixMarket(name string, r io.Reader) (*COO, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("tensor: empty matrix market input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("tensor: unsupported matrix market header %q", sc.Text())
	}
	field, sym := header[3], header[4]
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("tensor: unsupported matrix market field %q", field)
	}
	switch sym {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("tensor: unsupported matrix market symmetry %q", sym)
	}
	var c *COO
	declared := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if c == nil {
			if len(f) != 3 {
				return nil, fmt.Errorf("tensor: bad size line %q", line)
			}
			rows, err1 := strconv.Atoi(f[0])
			cols, err2 := strconv.Atoi(f[1])
			nnz, err3 := strconv.Atoi(f[2])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("tensor: bad size line %q", line)
			}
			declared = nnz
			c = NewCOO(name, rows, cols)
			continue
		}
		if len(f) < 2 {
			return nil, fmt.Errorf("tensor: bad entry line %q", line)
		}
		i, err1 := strconv.ParseInt(f[0], 10, 64)
		j, err2 := strconv.ParseInt(f[1], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("tensor: bad entry line %q", line)
		}
		v := 1.0
		if field != "pattern" {
			if len(f) < 3 {
				return nil, fmt.Errorf("tensor: missing value in %q", line)
			}
			var err error
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("tensor: bad value in %q", line)
			}
		}
		c.Append(v, i-1, j-1)
		if sym == "symmetric" && i != j {
			c.Append(v, j-1, i-1)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("tensor: matrix market input has no size line")
	}
	if sym == "general" && len(c.Pts) != declared {
		return nil, fmt.Errorf("tensor: declared %d entries, read %d", declared, len(c.Pts))
	}
	c.Sort()
	return c, nil
}
