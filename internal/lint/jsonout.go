package lint

// JSONDiagnostic is the stable one-object-per-line schema pdc-lint -json
// emits. CI tooling depends on these field names; changing them is a
// breaking change and must update the schema test alongside.
//
//   - file/line/col: position of the finding;
//   - analyzer: the reporting analyzer's name;
//   - message: the human-readable finding;
//   - func: the call-graph FuncKey of the enclosing function, when the
//     analyzer reasons per function (omitted otherwise);
//   - chain: for root-attributed findings (hotalloc, nilcharge's
//     request-path rule), the call path from the declared root to func,
//     root first (omitted otherwise).
type JSONDiagnostic struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	FuncKey  string   `json:"func,omitempty"`
	Chain    []string `json:"chain,omitempty"`
}

// ToJSON converts a Diagnostic to its wire schema.
func ToJSON(d Diagnostic) JSONDiagnostic {
	return JSONDiagnostic{
		File:     d.Pos.Filename,
		Line:     d.Pos.Line,
		Col:      d.Pos.Column,
		Analyzer: d.Analyzer,
		Message:  d.Message,
		FuncKey:  d.FuncKey,
		Chain:    d.Chain,
	}
}
