package qlang

import "testing"

// FuzzParseQuery asserts the parser's two global properties on
// arbitrary input: it never panics (errors are typed ParseErrors),
// and any accepted input round-trips — render is a fixed point under
// parse∘render.
func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		"select count where x > 5",
		"select ids where x between 1 and 2 or y >= -3.5",
		`explain analyze select hist(Energy, 32) where tag run = "a" and Energy <= 1e6`,
		"select count where ((x > 1 and y < 2) or x = 0) and y >= 1",
		"select count where 5 < x",
		"select count where 2.1 < Energy < 2.2",
		"select count where 1 < 2 < 3",
		`select count where tag k = "v \" w"`,
		"select count where tag A=\"\t\\n\"", // a raw tab and a backslash the lexer keeps
		"select hist(c, 65536) where c = 0.5e-3",
		"select count where x > ",
		"(((((",
		"select count where x !!! 1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		canon := q.Render()
		q2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical render %q of accepted input %q does not reparse: %v", canon, src, err)
		}
		if got := q2.Render(); got != canon {
			t.Fatalf("render not a fixed point: %q → %q (input %q)", canon, got, src)
		}
	})
}
