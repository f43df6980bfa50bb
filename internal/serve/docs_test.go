package serve

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// apiDoc loads docs/API.md, the wire-contract reference this test keeps
// bound to the code.
func apiDoc(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatalf("docs/API.md must exist and document the wire contract: %v", err)
	}
	return string(src)
}

// TestAPIDocCoversEndpoints asserts every HTTP surface of both modes is in
// the reference.
func TestAPIDocCoversEndpoints(t *testing.T) {
	doc := apiDoc(t)
	for _, ep := range []string{
		"/v1/evaluate", "/v1/jobs", "/v1/jobs/{id}",
		"/v1/tensors/{name}", "/v1/stats", "/metrics",
		"/healthz", "/readyz", "/debug/pprof/",
		"?trace=1", "?data=1",
	} {
		if !strings.Contains(doc, ep) {
			t.Errorf("docs/API.md does not document %s", ep)
		}
	}
}

// TestAPIDocCoversWireFields walks every wire struct with reflection and
// asserts each JSON field name appears in the reference, so adding or
// renaming a wire field without documenting it fails here.
func TestAPIDocCoversWireFields(t *testing.T) {
	doc := apiDoc(t)
	for _, v := range []any{
		WireTensor{}, WireFormat{}, WireSchedule{}, WireOptions{},
		WireFixpoint{}, EvaluateRequest{}, TensorInfo{}, TensorRef{},
		FixpointInfo{}, EvaluateResponse{}, JobResponse{}, ErrorResponse{},
		ProbeResponse{}, HistogramSnapshot{}, StatsResponse{},
		RouterShardStats{}, RouterStatsResponse{},
	} {
		rt := reflect.TypeOf(v)
		for i := 0; i < rt.NumField(); i++ {
			tag, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
			if tag == "" || tag == "-" {
				continue
			}
			if !strings.Contains(doc, "`"+tag+"`") && !strings.Contains(doc, `"`+tag+`"`) {
				t.Errorf("docs/API.md does not document %s field %q", rt.Name(), tag)
			}
		}
	}
}

// TestAPIDocCoversErrors asserts the reference names every error status the
// service produces and the message shapes the validation fixtures in
// wire_test.go pin, so client-visible error text stays documented.
func TestAPIDocCoversErrors(t *testing.T) {
	doc := apiDoc(t)
	for _, status := range []string{"400", "404", "405", "413", "429", "503"} {
		if !strings.Contains(doc, status) {
			t.Errorf("docs/API.md does not mention status %s", status)
		}
	}
	for _, msg := range []string{
		// The wire_test.go validation fixtures.
		"coords but", "arity", "outside [0,", "duplicates coord",
		"non-positive dimension", "unknown opt level",
		"no input for tensor", "not referenced",
		"unknown engine", "but iterated outside",
		// Lookup, limit, and lifecycle errors.
		"no job", "no stored tensor", "request body exceeds",
		"bad request body", "Retry-After",
	} {
		if !strings.Contains(doc, msg) {
			t.Errorf("docs/API.md does not document the error shape %q", msg)
		}
	}
}

// TestAPIDocCoversRouterMetrics asserts every sam_router_* family the
// router registers is in the reference's family table.
func TestAPIDocCoversRouterMetrics(t *testing.T) {
	doc := apiDoc(t)
	rt, err := NewRouter(RouterConfig{Shards: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, fam := range rt.reg.Snapshot() {
		if !strings.Contains(doc, fam.Name) {
			t.Errorf("docs/API.md does not document router metric family %s", fam.Name)
		}
	}
}
