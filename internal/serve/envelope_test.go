package serve

import (
	"bytes"
	"reflect"
	"testing"
)

// TestReadEnvelope holds the router's view of a body to the shard's: for
// every body the full strict decode accepts, the envelope is that decode
// with the operand arrays gone; what the strict decode rejects for its
// shape or an unknown field has no envelope.
func TestReadEnvelope(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		want       bool // the body has an envelope
	}{
		{"plain", `{"expr":"x(i) = B(i,j) * c(j)","inputs":{"B":{"dims":[3,2],"coords":[[0,0],[2,1]],"values":[1,2]},"c":{"ref":"vec"}}}`, true},
		{"everything", `{"expr":"x(i) = B(i,j) * c(j)","formats":{"B":{"levels":["dense","compressed"],"mode_order":[1,0]}},"schedule":{"loop_order":["i","j"],"par":2,"opt":1},"options":{"engine":"comp","max_cycles":9},"fixpoint":{"var":"c","max_iters":3},"inputs":{"B":{"ref":"M"},"c":{"dims":[2],"coords":[[0],[1]],"values":[3,4]}}}`, true},
		{"whitespace", " {\n\t\"expr\" : \"x(i) = b(i)\" ,\r\n \"inputs\" : { \"b\" : { \"dims\" : [ 3 ] , \"coords\" : [ [ 1 ] ] , \"values\" : [ 1e-5 ] } } } \n", true},
		{"folded keys", `{"EXPR":"x(i) = b(i)","Inputs":{"b":{"DIMS":[3],"Coords":[[1]],"vaLues":[1],"REF":""}}}`, true},
		{"escaped keys", `{"expr":"x(i) = b(i)","in\u0070uts":{"b":{"dims":[3],"co\u006frds":[[1]],"values":[1]}}}`, true},
		{"brackets in strings", `{"expr":"x(i) = b(i)","inputs":{"b":{"ref":"a]\"}\\"}},"options":{"engine":"}{]["}}`, true},
		{"inputs first", `{"inputs":{"b":{"values":[1],"coords":[[1]],"dims":[3]}},"expr":"x(i) = b(i)"}`, true},
		{"duplicate keys", `{"expr":"nope","inputs":{"b":{"ref":"old"}},"expr":"x(i) = b(i)","inputs":{"b":{"dims":[3],"dims":[4]},"c":{"ref":"r"}}}`, true},
		{"nulls", `{"expr":"x(i) = b(i)","schedule":null,"inputs":{"b":null,"c":{"dims":null,"coords":null,"values":null,"ref":null}}}`, true},
		{"null inputs", `{"expr":"x(i) = b(i)","inputs":null}`, true},
		{"empty objects", `{"expr":"","inputs":{"b":{}},"formats":{}}`, true},
		{"nested operand junk", `{"expr":"x(i) = b(i)","inputs":{"b":{"dims":[3],"coords":[[1],{"a":["]"]},"]"],"values":{"x":[1,[2]]}}}}`, true},
		{"trailing bytes", `{"expr":"x(i) = b(i)","inputs":{"b":{"dims":[3],"coords":[[1]],"values":[1]}}} trailing`, true},
		{"unknown field", `{"expr":"x(i) = b(i)","inputz":{}}`, false},
		{"unknown input field", `{"expr":"x(i) = b(i)","inputs":{"b":{"dims":[3],"coordz":[[1]]}}}`, false},
		{"unknown schedule field", `{"expr":"x(i) = b(i)","schedule":{"parr":2},"inputs":{}}`, false},
		{"input not an object", `{"expr":"x(i) = b(i)","inputs":{"b":[1,2]}}`, false},
		{"inputs not an object", `{"expr":"x(i) = b(i)","inputs":[1,2]}`, false},
		{"truncated in operand", `{"expr":"x(i) = b(i)","inputs":{"b":{"dims":[3],"coords":[[1],[2`, false},
		{"truncated in string", `{"expr":"x(i) = b(i)","inputs":{"b":{"ref":"abc`, false},
		{"missing comma", `{"expr":"x(i) = b(i)" "inputs":{}}`, false},
		{"not an object", `[1,2]`, false},
		{"a number", `7`, false},
		{"empty", ``, false},
	} {
		env := readEnvelope([]byte(tc.body))
		if (env != nil) != tc.want {
			t.Errorf("%s: envelope %v, want one: %v", tc.name, env, tc.want)
			continue
		}
		var full EvaluateRequest
		err := decodeStrict(bytes.NewReader([]byte(tc.body)), &full)
		if !tc.want {
			if err == nil {
				t.Errorf("%s: no envelope for a body the strict decode accepts", tc.name)
			}
			continue
		}
		if tc.name == "nested operand junk" {
			// The one thing the router does not see: what is inside an operand.
			if err == nil {
				t.Errorf("%s: strict decode accepted junk operands", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: strict decode rejects a body with an envelope: %v", tc.name, err)
			continue
		}
		// An escaped key hides its operand from the skim, which then decodes
		// it like the shard would: slower, not different.
		for _, req := range []*EvaluateRequest{env, &full} {
			for name, in := range req.Inputs {
				req.Inputs[name] = WireTensor{Ref: in.Ref}
			}
		}
		if !reflect.DeepEqual(env, &full) {
			t.Errorf("%s: envelope %+v, strict decode minus operands %+v", tc.name, env, &full)
		}
	}
}

// TestSkimEnvelopeSize checks the point of the skim: what is left to decode
// does not grow with the operands.
func TestSkimEnvelopeSize(t *testing.T) {
	small, large := skimEnvelope(inlineSpMVBody(t, 600)), skimEnvelope(inlineSpMVBody(t, 6000))
	if len(small) != len(large) || len(large) > 256 {
		t.Errorf("envelope of a 600-nnz body is %d bytes, of a 6000-nnz body %d; want equal and small:\n%s", len(small), len(large), large)
	}
}
