package tensor

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ReadMatrixMarket parses a sparse matrix in Matrix Market coordinate format
// (the SuiteSparse distribution format used throughout the paper's
// evaluation). Supported qualifiers: real/integer/pattern and
// general/symmetric. The file must keep its own promises: sizes and the
// entry count are non-negative, sizes fit the 32-bit coordinates a fiber
// level stores, a symmetric matrix is square, every 1-based index lies
// inside the declared shape, and the
// number of entry lines equals the declared count (for a symmetric file,
// the stored triangle's). Every error quotes the line it is about.
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
	var sizeLine string
	var rows, cols, declared, read int64
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
			var err [3]error
			rows, err[0] = strconv.ParseInt(f[0], 10, 64)
			cols, err[1] = strconv.ParseInt(f[1], 10, 64)
			declared, err[2] = strconv.ParseInt(f[2], 10, 64)
			switch {
			case err[0] != nil || err[1] != nil || err[2] != nil:
				return nil, fmt.Errorf("tensor: bad size line %q", line)
			case rows < 0 || cols < 0 || declared < 0:
				return nil, fmt.Errorf("tensor: negative size in size line %q", line)
			case rows > math.MaxInt32 || cols > math.MaxInt32:
				return nil, fmt.Errorf("tensor: size line %q exceeds the 32-bit coordinates a fiber level stores", line)
			case sym == "symmetric" && rows != cols:
				return nil, fmt.Errorf("tensor: symmetric matrix with non-square size line %q", line)
			}
			sizeLine = line
			c = NewCOO(name, int(rows), int(cols))
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
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("tensor: entry line %q lies outside the declared %dx%d shape", line, rows, cols)
		}
		if read++; read > declared {
			return nil, fmt.Errorf("tensor: entry line %q is past the %d entries size line %q declares", line, declared, sizeLine)
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
	if read != declared {
		return nil, fmt.Errorf("tensor: size line %q declares %d entries, read %d", sizeLine, declared, read)
	}
	c.Sort()
	return c, nil
}
