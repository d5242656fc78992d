package telemetry

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// Strict validation of the Prometheus text exposition format (0.0.4),
// as produced by WritePrometheus. Used by the /metrics parse tests, the
// daemon test and the chaos harness's process runs: every line must
// parse, every sample must belong to a declared family, and no series
// may appear twice — a malformed or colliding exposition is a bug even
// when a lenient scraper would survive it.

var (
	promMetricRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// CheckPrometheusText validates a full text exposition. It returns the
// first violation found (with its 1-based line number), or nil when
// every line parses, every sample's family carries a TYPE declaration,
// and no series (name plus label set) is emitted twice.
func CheckPrometheusText(b []byte) error {
	types := make(map[string]string)
	seen := make(map[string]bool)
	for i, line := range strings.Split(string(b), "\n") {
		ln := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				return fmt.Errorf("line %d: malformed TYPE declaration %q", ln, line)
			}
			name, typ := f[2], f[3]
			if !promMetricRe.MatchString(name) {
				return fmt.Errorf("line %d: invalid metric name %q", ln, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown metric type %q", ln, typ)
			}
			if _, dup := types[name]; dup {
				return fmt.Errorf("line %d: duplicate TYPE declaration for %q", ln, name)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or free comment
		}
		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", ln, err)
		}
		if !promFamilyDeclared(types, name) {
			return fmt.Errorf("line %d: sample %q has no TYPE declaration", ln, name)
		}
		series := name + "{" + labels + "}"
		if seen[series] {
			return fmt.Errorf("line %d: duplicate series %s", ln, series)
		}
		seen[series] = true
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("line %d: unparseable value %q for %s", ln, value, name)
		}
	}
	return nil
}

// promFamilyDeclared reports whether a sample name is covered by a TYPE
// declaration: directly, or through the histogram/summary series
// suffixes of a declared base family.
func promFamilyDeclared(types map[string]string, name string) bool {
	if _, ok := types[name]; ok {
		return true
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(name, suf)
		if !ok {
			continue
		}
		if t := types[base]; t == "histogram" || t == "summary" {
			return true
		}
	}
	return false
}

// parsePromSample splits one sample line into metric name, canonical
// label string (as written, without braces), and value token. Escaped
// characters inside label values are accepted; a timestamp field is not
// (WritePrometheus never emits one).
func parsePromSample(line string) (name, labels, value string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return "", "", "", fmt.Errorf("malformed sample %q", line)
	}
	name = line[:i]
	if !promMetricRe.MatchString(name) {
		return "", "", "", fmt.Errorf("invalid metric name %q", name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end, err := promLabelsEnd(rest)
		if err != nil {
			return "", "", "", err
		}
		labels = rest[1:end]
		if err := checkPromLabels(labels); err != nil {
			return "", "", "", err
		}
		rest = rest[end+1:]
	}
	if len(rest) < 2 || rest[0] != ' ' {
		return "", "", "", fmt.Errorf("missing value in %q", line)
	}
	value = rest[1:]
	if strings.ContainsAny(value, " \t") {
		return "", "", "", fmt.Errorf("trailing fields after value in %q", line)
	}
	return name, labels, value, nil
}

// promLabelsEnd returns the index of the '}' closing the label block
// that starts at s[0] == '{', honoring quoted (and escaped) values.
func promLabelsEnd(s string) (int, error) {
	inQuote, escaped := false, false
	for i := 1; i < len(s); i++ {
		c := s[i]
		switch {
		case escaped:
			escaped = false
		case inQuote && c == '\\':
			escaped = true
		case c == '"':
			inQuote = !inQuote
		case !inQuote && c == '}':
			return i, nil
		}
	}
	return 0, fmt.Errorf("unterminated label block in %q", s)
}

// checkPromLabels validates the interior of a label block:
// name="value" pairs separated by commas, each name a valid label
// identifier and each value fully quoted.
func checkPromLabels(labels string) error {
	rest := labels
	for rest != "" {
		eq := strings.Index(rest, "=")
		if eq <= 0 {
			return fmt.Errorf("malformed label pair in %q", labels)
		}
		lname := rest[:eq]
		if !promLabelRe.MatchString(lname) {
			return fmt.Errorf("invalid label name %q", lname)
		}
		rest = rest[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return fmt.Errorf("unquoted value for label %q", lname)
		}
		// Scan the quoted value, honoring escapes.
		i, escaped := 1, false
		for ; i < len(rest); i++ {
			if escaped {
				escaped = false
				continue
			}
			if rest[i] == '\\' {
				escaped = true
				continue
			}
			if rest[i] == '"' {
				break
			}
		}
		if i >= len(rest) {
			return fmt.Errorf("unterminated value for label %q", lname)
		}
		rest = rest[i+1:]
		if rest == "" {
			return nil
		}
		if !strings.HasPrefix(rest, ",") {
			return fmt.Errorf("junk after label %q in %q", lname, labels)
		}
		rest = rest[1:]
	}
	return nil
}
