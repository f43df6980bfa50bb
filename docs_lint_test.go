package sam

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"sam/internal/serve"
)

// docFiles are the prose surfaces the lint keeps honest against the code.
var docFiles = []string{
	"README.md",
	"docs/ARCHITECTURE.md",
	"docs/API.md",
	"docs/OPERATIONS.md",
}

// definedFlags extracts the flag names a command actually registers, by
// scanning its main.go for flag-set definition calls. This is what -help
// prints, so a doc flag missing here is a doc flag -help does not know.
func definedFlags(t *testing.T, cmd string) map[string]bool {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("cmd", cmd, "main.go"))
	if err != nil {
		t.Fatalf("read %s: %v", cmd, err)
	}
	re := regexp.MustCompile(`\.(?:String|Bool|Int|Int64|Float64|Duration)\(\s*"([^"]+)"`)
	flags := make(map[string]bool)
	for _, m := range re.FindAllStringSubmatch(string(src), -1) {
		flags[m[1]] = true
	}
	if len(flags) == 0 {
		t.Fatalf("found no flag definitions in cmd/%s/main.go; lint regex out of date?", cmd)
	}
	return flags
}

var commands = []string{"samserve", "samsim", "sambench", "custard"}

// flagToken matches a CLI flag mention: a dash+name preceded by whitespace,
// a backtick, or a paren — never the hyphen inside a compound word.
var flagToken = regexp.MustCompile("(?:^|[\\s`(])-([a-zA-Z][a-zA-Z0-9]*)\\b")

// TestDocsFlagsExist walks every doc line that names one of the CLIs and
// checks each -flag token on it against the flags that command (or any
// other command named on the same line) really defines. Renaming or
// removing a flag without updating the docs fails here.
func TestDocsFlagsExist(t *testing.T) {
	defined := make(map[string]map[string]bool, len(commands))
	for _, cmd := range commands {
		defined[cmd] = definedFlags(t, cmd)
	}
	for _, path := range docFiles {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			var sets []map[string]bool
			for _, cmd := range commands {
				if strings.Contains(line, cmd) {
					sets = append(sets, defined[cmd])
				}
			}
			if len(sets) == 0 {
				continue
			}
			for _, m := range flagToken.FindAllStringSubmatch(line, -1) {
				name, ok := m[1], false
				for _, set := range sets {
					ok = ok || set[name]
				}
				if !ok {
					t.Errorf("%s:%d documents flag -%s, which no command named on that line defines", path, i+1, name)
				}
			}
		}
	}
}

// TestOperationsFlagTablesComplete parses the per-command flag tables in
// docs/OPERATIONS.md (rows shaped `| -flag | ...` under a `### <command>`
// heading) and holds them to exactly the defined flag sets in both
// directions: no phantom rows, no undocumented flags.
func TestOperationsFlagTablesComplete(t *testing.T) {
	src, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	heading := regexp.MustCompile(`^### (\w+)`)
	row := regexp.MustCompile("^\\| `-([a-zA-Z][a-zA-Z0-9]*)`")
	documented := make(map[string]map[string]bool)
	var current string
	for i, line := range strings.Split(string(src), "\n") {
		if m := heading.FindStringSubmatch(line); m != nil {
			current = m[1]
			continue
		}
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if current == "" {
			t.Fatalf("docs/OPERATIONS.md:%d: flag table row outside any ### command section", i+1)
		}
		if documented[current] == nil {
			documented[current] = make(map[string]bool)
		}
		documented[current][m[1]] = true
	}
	for _, cmd := range commands {
		defined := definedFlags(t, cmd)
		got := documented[cmd]
		if got == nil {
			t.Errorf("docs/OPERATIONS.md has no flag table for %s", cmd)
			continue
		}
		for name := range defined {
			if !got[name] {
				t.Errorf("docs/OPERATIONS.md: %s flag -%s is not in its flag table", cmd, name)
			}
		}
		for name := range got {
			if !defined[name] {
				t.Errorf("docs/OPERATIONS.md: %s table documents -%s, which the command does not define", cmd, name)
			}
		}
	}
}

// TestDocsExperimentsExist checks every `-exp name[,name...]` mention in the
// docs against the experiment list sambench validates -exp with (the `all`
// slice in its main.go), so a removed experiment cannot linger in prose.
func TestDocsExperimentsExist(t *testing.T) {
	src, err := os.ReadFile("cmd/sambench/main.go")
	if err != nil {
		t.Fatal(err)
	}
	list := regexp.MustCompile(`(?m)^var all = \[\]string\{([^}]*)\}`).FindSubmatch(src)
	if list == nil {
		t.Fatal("found no experiment list in cmd/sambench/main.go; lint regex out of date?")
	}
	known := make(map[string]bool)
	for _, m := range regexp.MustCompile(`"([^"]+)"`).FindAllSubmatch(list[1], -1) {
		known[string(m[1])] = true
	}
	mention := regexp.MustCompile(`-exp\s+([a-z0-9,]+)`)
	for _, path := range docFiles {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		for i, line := range strings.Split(string(doc), "\n") {
			for _, m := range mention.FindAllStringSubmatch(line, -1) {
				for _, name := range strings.Split(m[1], ",") {
					if !known[name] {
						t.Errorf("%s:%d documents -exp %s, which sambench does not know", path, i+1, name)
					}
				}
			}
		}
	}
}

// TestDocsLinked asserts the docs exist and the README links every one of
// them, so they stay discoverable.
func TestDocsLinked(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range docFiles[1:] {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("missing doc: %v", err)
			continue
		}
		if !strings.Contains(string(readme), path) {
			t.Errorf("README.md does not link %s", path)
		}
	}
}

// TestDocsMetricFamiliesExist greps the docs for sam_* metric family names
// and checks each against the families the serving layer actually
// registers, so the observability tables cannot drift (the family-rename
// class of bug this lint was added for).
func TestDocsMetricFamiliesExist(t *testing.T) {
	var registered []byte
	for _, path := range []string{
		"internal/serve/metrics.go",
		"internal/serve/server.go",
		"internal/serve/router.go",
	} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		registered = append(registered, src...)
	}
	family := regexp.MustCompile(`\bsam_[a-z0-9_]+\b`)
	// Suffixes the Prometheus exposition derives from a histogram family.
	derived := strings.NewReplacer("_bucket", "", "_sum", "", "_count", "")
	for _, path := range docFiles {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range family.FindAllString(string(src), -1) {
			base := derived.Replace(name)
			// A trailing underscore is a family-prefix mention
			// (`sam_tensor_store_*`): match any registered family under it.
			want := `"` + base + `"`
			if strings.HasSuffix(base, "_") {
				want = `"` + base
			}
			if !strings.Contains(string(registered), want) {
				t.Errorf("%s mentions metric family %s, which the serve layer does not register", path, name)
			}
		}
	}
}

// TestDocsWireFieldsExist checks docs/API.md's response and stats tables
// against the JSON tags of serve.EvaluateResponse and serve.StatsResponse,
// both ways: every tag has a row, and every backticked name in a row's first
// column is a tag. A removed field left in a table, or a new one left out,
// fails here.
func TestDocsWireFieldsExist(t *testing.T) {
	src, err := os.ReadFile("docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(src)
	for _, tc := range []struct {
		heading string // the line introducing the table
		typ     reflect.Type
	}{
		{"Response (`EvaluateResponse`, 200):", reflect.TypeFor[serve.EvaluateResponse]()},
		{"## GET /v1/stats", reflect.TypeFor[serve.StatsResponse]()},
	} {
		tags := map[string]bool{}
		for i := range tc.typ.NumField() {
			if name, _, _ := strings.Cut(tc.typ.Field(i).Tag.Get("json"), ","); name != "" && name != "-" {
				tags[name] = true
			}
		}
		documented := map[string]bool{}
		for _, name := range docTableFields(t, doc, tc.heading) {
			documented[name] = true
			if !tags[name] {
				t.Errorf("docs/API.md %q table documents %q, which %s does not carry", tc.heading, name, tc.typ.Name())
			}
		}
		for name := range tags {
			if !documented[name] {
				t.Errorf("%s carries %q, which the docs/API.md %q table does not document", tc.typ.Name(), name, tc.heading)
			}
		}
	}
}

// docTableFields returns the backticked names in the first column of the
// first markdown table after the heading line.
func docTableFields(t *testing.T, doc, heading string) []string {
	t.Helper()
	_, rest, ok := strings.Cut(doc, "\n"+heading+"\n")
	if !ok {
		t.Fatalf("docs/API.md has no line %q", heading)
	}
	code := regexp.MustCompile("`([^`]+)`")
	var names []string
	inTable := false
	for _, line := range strings.Split(rest, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cells := strings.Split(line, "|")
		for _, m := range code.FindAllStringSubmatch(cells[1], -1) {
			names = append(names, m[1])
		}
	}
	if len(names) == 0 {
		t.Fatalf("docs/API.md has no field table after %q", heading)
	}
	return names
}
