// Triangle counting as a masked SpGEMM on the Sparse Abstract Machine. The
// scalar contraction t = A(i,j) * A(i,k) * A(k,j) multiplies the adjacency
// matrix by itself while masking with a third copy of A: the co-iteration
// over j intersects each A·A path i→k→j with the direct edge i→j, so only
// wedges that close into triangles reach the reducer — the masked-SpGEMM
// formulation GraphBLAS uses, expressed as one SAM graph. Each ordered
// triangle is counted once per vertex and direction, so the undirected
// count is t/6.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"sam"
)

func main() {
	const nodes = 200
	rng := rand.New(rand.NewSource(23))

	// A random undirected graph (symmetric 0/1 adjacency, empty diagonal).
	adj := map[[2]int]bool{}
	for len(adj) < 2*900 {
		u, v := rng.Intn(nodes), rng.Intn(nodes)
		if u == v {
			continue
		}
		adj[[2]int{u, v}] = true
		adj[[2]int{v, u}] = true
	}
	A := sam.NewTensor("A", nodes, nodes)
	for e := range adj {
		A.Append(1, int64(e[0]), int64(e[1]))
	}
	A.Sort()

	// Host-side reference count over adjacency sets.
	nbr := make([]map[int]bool, nodes)
	for i := range nbr {
		nbr[i] = map[int]bool{}
	}
	for e := range adj {
		nbr[e[0]][e[1]] = true
	}
	host := 0
	for u := 0; u < nodes; u++ {
		for v := range nbr[u] {
			if v <= u {
				continue
			}
			for w := range nbr[v] {
				if w > v && nbr[u][w] {
					host++
				}
			}
		}
	}

	p, err := sam.CompileProgram("t = A(i,j) * A(i,k) * A(k,j)", nil, sam.Schedule{})
	if err != nil {
		log.Fatal(err)
	}

	for _, engine := range []sam.EngineKind{sam.EngineEvent, sam.EngineComp} {
		res, err := p.Run(sam.Inputs{"A": A}, sam.Options{Engine: engine})
		if err != nil {
			log.Fatal(err)
		}
		total := 0.0
		if res.Output.NNZ() > 0 {
			total = res.Output.Pts[0].Val
		}
		count := int(total) / 6
		line := fmt.Sprintf("engine %-5s  ordered walks %6.0f  triangles %d", engine, total, count)
		if res.Cycles > 0 {
			line += fmt.Sprintf("  (%d cycles)", res.Cycles)
		}
		fmt.Println(line)
		if count != host {
			log.Fatalf("SAM counted %d triangles, host reference says %d", count, host)
		}
	}
	fmt.Printf("reference:    %d triangles over %d nodes, %d edges\n", host, nodes, len(adj)/2)
}
