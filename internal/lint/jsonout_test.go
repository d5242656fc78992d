package lint_test

import (
	"encoding/json"
	"go/token"
	"reflect"
	"testing"

	"pdcquery/internal/lint"
)

// TestJSONDiagnosticSchema pins the -json line schema CI tooling parses:
// field names, omission rules, and the func attribution field.
func TestJSONDiagnosticSchema(t *testing.T) {
	d := lint.Diagnostic{
		Pos:      token.Position{Filename: "internal/exec/exec.go", Line: 42, Column: 7},
		Analyzer: "errflow",
		Message:  "error dropped on a request path",
		FuncKey:  "pdcquery/internal/exec.Engine.readRegion",
	}
	b, err := json.Marshal(lint.ToJSON(d))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"file":     "internal/exec/exec.go",
		"line":     float64(42),
		"col":      float64(7),
		"analyzer": "errflow",
		"message":  "error dropped on a request path",
		"func":     "pdcquery/internal/exec.Engine.readRegion",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("schema mismatch:\n got  %v\n want %v", got, want)
	}

	// Analyzers without per-function attribution omit func entirely
	// rather than emitting an empty value.
	d.FuncKey = ""
	b, err = json.Marshal(lint.ToJSON(d))
	if err != nil {
		t.Fatal(err)
	}
	got = nil
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if _, ok := got["func"]; ok {
		t.Errorf("field \"func\" must be omitted when empty, got %v", got["func"])
	}
	for _, k := range []string{"file", "line", "col", "analyzer", "message"} {
		if _, ok := got[k]; !ok {
			t.Errorf("required field %q missing", k)
		}
	}
}
