// Package wiretest is the round-trip check the wire codecs' tests
// share. A table of cases proves a codec exact only for the fields the
// cases set, so RoundTrip also holds the cases themselves to two rules,
// over every struct type of the subject's package that they contain:
//
//   - every field is non-zero in some case, so a field the encoder
//     writes and the decoder drops (or the reverse) changes a decoded
//     value;
//   - every two fields of one type differ in some case, so an encoder
//     and a decoder that disagree on their order change a decoded value.
//
// A field added to a wire struct fails the check until a case sets it.
package wiretest

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// RoundTrip runs every case through roundTrip (encode, then decode) and
// fails t unless each decodes to a value reflect.DeepEqual to itself
// and the cases together satisfy the package rules. offWire names the
// fields the format leaves off the wire by design, as "Type.Field";
// the cases leave them zero and the coverage rules skip them. Fields of
// a sync type are skipped too.
func RoundTrip[T any](t *testing.T, cases []T, roundTrip func(T) (T, error), offWire ...string) {
	t.Helper()
	for i, c := range cases {
		got, err := roundTrip(c)
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		if !reflect.DeepEqual(got, c) {
			t.Errorf("case %d: round trip = %+v, want %+v", i, got, c)
		}
	}
	cov := &coverage{pkg: subjectPkg(reflect.TypeOf(cases).Elem()), types: map[reflect.Type]*typeCov{}}
	for _, c := range cases {
		cov.walk(reflect.ValueOf(c))
	}
	cov.report(t, offWire)
}

// subjectPkg is the package of the named type under t's pointers,
// slices and arrays: the package whose struct types the rules cover.
func subjectPkg(t reflect.Type) string {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice || t.Kind() == reflect.Array {
		t = t.Elem()
	}
	return t.PkgPath()
}

type coverage struct {
	pkg   string
	types map[reflect.Type]*typeCov
}

// typeCov records, for one struct type, which fields were non-zero in
// some instance and which same-typed field pairs differed in some.
type typeCov struct {
	set    []bool
	differ map[[2]int]bool
}

func (c *coverage) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			c.walk(v.Elem())
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			c.walk(v.Index(i))
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			c.walk(it.Value())
		}
	case reflect.Struct:
		t := v.Type()
		if t.PkgPath() != c.pkg {
			return // another package's codec: its own tests cover it
		}
		tc := c.types[t]
		if tc == nil {
			tc = &typeCov{set: make([]bool, t.NumField()), differ: map[[2]int]bool{}}
			c.types[t] = tc
		}
		for i := 0; i < t.NumField(); i++ {
			f := v.Field(i)
			if !f.IsZero() {
				tc.set[i] = true
			}
			for j := i + 1; j < t.NumField(); j++ {
				if t.Field(j).Type == t.Field(i).Type && fmt.Sprint(f) != fmt.Sprint(v.Field(j)) {
					tc.differ[[2]int{i, j}] = true
				}
			}
			c.walk(f)
		}
	}
}

func (c *coverage) report(t *testing.T, offWire []string) {
	t.Helper()
	skip := map[string]bool{}
	for _, name := range offWire {
		skip[name] = true
	}
	var types []reflect.Type
	for typ := range c.types {
		types = append(types, typ)
	}
	sort.Slice(types, func(i, j int) bool { return types[i].String() < types[j].String() })
	for _, typ := range types {
		tc := c.types[typ]
		covered := func(i int) bool {
			f := typ.Field(i)
			return !skip[typ.Name()+"."+f.Name] && f.Type.PkgPath() != "sync"
		}
		for i, set := range tc.set {
			if covered(i) && !set {
				t.Errorf("%s.%s is zero in every case: a codec that dropped it would pass", typ, typ.Field(i).Name)
			}
		}
		for i := range tc.set {
			for j := i + 1; j < len(tc.set); j++ {
				if covered(i) && covered(j) && typ.Field(i).Type == typ.Field(j).Type && !tc.differ[[2]int{i, j}] {
					t.Errorf("%s.%s and .%s are equal in every case: a codec that swapped them would pass",
						typ, typ.Field(i).Name, typ.Field(j).Name)
				}
			}
		}
	}
}
