// Command custard compiles a tensor index notation statement to a SAM
// dataflow graph and prints it in Graphviz DOT format (the representation
// the paper's artifact stores SAM graphs in).
//
// Usage:
//
//	custard -expr 'X(i,j) = B(i,k) * C(k,j)' -order i,k,j
//	custard -expr 'x(i) = B(i,j) * c(j)' -format c=dense -locate
//	custard -expr 'X(i,j) = B(i,k) * C(k,j)' -stats
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sam/internal/custard"
	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/lang"
)

func main() {
	expr := flag.String("expr", "", "tensor index notation statement, e.g. 'X(i,j) = B(i,k) * C(k,j)'")
	order := flag.String("order", "", "comma-separated loop order, e.g. i,k,j (default: natural order)")
	formats := flag.String("format", "", "comma-separated tensor formats, e.g. B=csr,c=dense (default: compressed)")
	locate := flag.Bool("locate", false, "rewrite intersections against dense levels into locators")
	skip := flag.Bool("skip", false, "fuse compressed intersections into coordinate-skipping units")
	stats := flag.Bool("stats", false, "print primitive counts instead of DOT")
	flag.Parse()

	if *expr == "" {
		fmt.Fprintln(os.Stderr, "custard: -expr is required")
		flag.Usage()
		os.Exit(2)
	}
	e, err := lang.Parse(*expr)
	if err != nil {
		fatal(err)
	}
	fm, err := parseFormats(*formats, e)
	if err != nil {
		fatal(err)
	}
	sched := lang.Schedule{UseLocators: *locate, UseSkip: *skip}
	if *order != "" {
		sched.LoopOrder = strings.Split(*order, ",")
	}
	g, err := custard.Compile(e, fm, sched)
	if err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Printf("%-12s %d\n", "nodes", len(g.Nodes))
		fmt.Printf("%-12s %d\n", "edges", len(g.Edges))
		for _, k := range []graph.Kind{
			graph.Scanner, graph.Repeat, graph.Intersect, graph.GallopIntersect,
			graph.Union, graph.Locate, graph.Array, graph.ALU, graph.Reduce,
			graph.CrdDrop, graph.CrdWriter, graph.ValsWriter,
		} {
			if n := g.Count(k); n > 0 {
				fmt.Printf("%-12s %d\n", k, n)
			}
		}
		return
	}
	fmt.Print(g.DOT())
}

func parseFormats(spec string, e *lang.Einsum) (lang.Formats, error) {
	if spec == "" {
		return nil, nil
	}
	orders := map[string]int{}
	for _, a := range append(e.Accesses(), e.LHS) {
		orders[a.Tensor] = len(a.Idx)
	}
	out := lang.Formats{}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("custard: bad format %q (want tensor=kind)", part)
		}
		name, kind := kv[0], kv[1]
		order, ok := orders[name]
		if !ok {
			return nil, fmt.Errorf("custard: tensor %q not in expression", name)
		}
		switch kind {
		case "dense":
			out[name] = lang.Uniform(order, fiber.Dense)
		case "compressed", "dcsr", "csf":
			out[name] = lang.Uniform(order, fiber.Compressed)
		case "csr":
			out[name] = lang.CSR(order)
		case "bitvector":
			out[name] = lang.Uniform(order, fiber.Bitvector)
		default:
			return nil, fmt.Errorf("custard: unknown format %q (dense, compressed, csr, bitvector)", kind)
		}
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "custard:", err)
	os.Exit(1)
}
