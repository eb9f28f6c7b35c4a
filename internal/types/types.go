// Package types defines the value model shared by every layer of the store:
// column kinds, single values, rows, schemas and sort-key comparison.
//
// The store is column-oriented, so most hot paths operate on typed vectors
// (package vector) rather than on Value; Value and Row exist for the
// row-shaped edges of the system (updates entering the store, results leaving
// it, and the value spaces of differential structures).
package types

import (
	"errors"
	"fmt"
	"strings"
)

// Kind enumerates the column types supported by the store.
type Kind uint8

const (
	// Int64 is a 64-bit signed integer column.
	Int64 Kind = iota
	// Float64 is a 64-bit IEEE-754 column.
	Float64
	// String is a variable-length UTF-8 column.
	String
	// Bool is a boolean column (stored as one byte).
	Bool
	// Date is a day-precision date stored as days since 1970-01-01.
	Date
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	case Bool:
		return "bool"
	case Date:
		return "date"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// FixedWidth reports the physical width in bytes of one value of kind k in
// uncompressed columnar storage. Strings are variable-width and return
// (0, false); their width is len(data) plus a 4-byte offset entry.
func (k Kind) FixedWidth() (int, bool) {
	switch k {
	case Int64, Float64, Date:
		return 8, true
	case Bool:
		return 1, true
	}
	return 0, false
}

// Value is a tagged union holding a single column value.
// The zero Value is the Int64 value 0.
type Value struct {
	K Kind
	I int64 // Int64, Date (days), Bool (0 or 1)
	F float64
	S string
}

// Int returns an Int64 value.
func Int(v int64) Value { return Value{K: Int64, I: v} }

// Float returns a Float64 value.
func Float(v float64) Value { return Value{K: Float64, F: v} }

// Str returns a String value.
func Str(v string) Value { return Value{K: String, S: v} }

// BoolVal returns a Bool value.
func BoolVal(v bool) Value {
	if v {
		return Value{K: Bool, I: 1}
	}
	return Value{K: Bool, I: 0}
}

// DateVal returns a Date value holding days since the Unix epoch.
func DateVal(days int64) Value { return Value{K: Date, I: days} }

// Bool reports the boolean interpretation of v.
func (v Value) Bool() bool { return v.I != 0 }

// String renders the value for debugging and example output.
func (v Value) String() string {
	switch v.K {
	case Int64, Date:
		return fmt.Sprintf("%d", v.I)
	case Float64:
		return fmt.Sprintf("%g", v.F)
	case String:
		return v.S
	case Bool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Compare orders two values of the same kind: -1, 0, or +1.
// Comparing values of different kinds panics; schemas guarantee
// homogeneous columns, so a mixed comparison is a programming error.
func Compare(a, b Value) int {
	if a.K != b.K {
		panic(fmt.Sprintf("types: comparing %v with %v", a.K, b.K))
	}
	switch a.K {
	case Int64, Date, Bool:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	case Float64:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
		return 0
	case String:
		return strings.Compare(a.S, b.S)
	}
	panic("types: unknown kind")
}

// Equal reports whether a and b are the same value of the same kind.
func Equal(a, b Value) bool { return a.K == b.K && Compare(a, b) == 0 }

// Row is a full tuple: one Value per schema column, in schema order.
type Row []Value

// Clone returns a deep-enough copy of r (Values are immutable, so a shallow
// slice copy suffices).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Project returns the values of r at the given column indexes.
func (r Row) Project(cols []int) Row {
	out := make(Row, len(cols))
	for i, c := range cols {
		out[i] = r[c]
	}
	return out
}

// String renders the row as a parenthesized tuple.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// CompareRows orders two equal-length rows lexicographically.
func CompareRows(a, b Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// CompareRowsAt orders rows a and b on the given column indexes.
func CompareRowsAt(a, b Row, cols []int) int {
	for _, c := range cols {
		if cmp := Compare(a[c], b[c]); cmp != 0 {
			return cmp
		}
	}
	return 0
}

// Column describes one column of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema describes an ordered table: its columns and the sort key.
//
// SortKey lists column indexes; the table is physically ordered by the
// concatenation of those columns, and that concatenation is a key of the
// table (as the paper's SK requires).
type Schema struct {
	Cols    []Column
	SortKey []int
}

// NewSchema builds a schema and validates the sort-key indexes.
func NewSchema(cols []Column, sortKey []int) (*Schema, error) {
	seen := map[string]bool{}
	for _, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("types: empty column name")
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("types: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
	}
	if len(sortKey) == 0 {
		return nil, fmt.Errorf("types: schema requires a sort key")
	}
	used := map[int]bool{}
	for _, k := range sortKey {
		if k < 0 || k >= len(cols) {
			return nil, fmt.Errorf("types: sort key index %d out of range", k)
		}
		if used[k] {
			return nil, fmt.Errorf("types: duplicate sort key index %d", k)
		}
		used[k] = true
	}
	return &Schema{Cols: cols, SortKey: sortKey}, nil
}

// MustSchema is NewSchema for static schemas; it panics on error.
func MustSchema(cols []Column, sortKey []int) *Schema {
	s, err := NewSchema(cols, sortKey)
	if err != nil {
		panic(err)
	}
	return s
}

// NumCols returns the number of columns.
func (s *Schema) NumCols() int { return len(s.Cols) }

// ColIndex returns the index of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// ColNames returns the column names in schema order.
func (s *Schema) ColNames() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// IsSortKeyCol reports whether column index c participates in the sort key.
func (s *Schema) IsSortKeyCol(c int) bool {
	for _, k := range s.SortKey {
		if k == c {
			return true
		}
	}
	return false
}

// KeyOf projects the sort-key columns out of a full row.
func (s *Schema) KeyOf(r Row) Row { return r.Project(s.SortKey) }

// CompareKeyRows orders two full rows by the schema's sort key.
func (s *Schema) CompareKeyRows(a, b Row) int { return CompareRowsAt(a, b, s.SortKey) }

// CompareKeyToRow orders a projected key (len == len(SortKey)) against the
// sort key of a full row.
func (s *Schema) CompareKeyToRow(key Row, row Row) int {
	for i, c := range s.SortKey {
		if cmp := Compare(key[i], row[c]); cmp != 0 {
			return cmp
		}
	}
	return 0
}

// ValidateRow checks that r matches the schema's arity and column kinds.
func (s *Schema) ValidateRow(r Row) error {
	if len(r) != len(s.Cols) {
		return fmt.Errorf("types: row has %d values, schema %q-style has %d columns", len(r), s.Cols[0].Name, len(s.Cols))
	}
	for i, v := range r {
		if v.K != s.Cols[i].Kind {
			return fmt.Errorf("types: column %q expects %v, got %v", s.Cols[i].Name, s.Cols[i].Kind, v.K)
		}
	}
	return nil
}

// ErrKey is what ValidateKey wraps: a key that does not fit the sort key.
var ErrKey = errors.New("types: key does not fit the sort key")

// ValidateKey checks a sort-key value before anything compares it with
// stored keys (Compare panics on mixed kinds). A full key — a probe or a
// write target — needs one value per sort-key column; a prefix — a range
// bound, nil for an open one — at most that many. Every value must have its
// column's kind.
func (s *Schema) ValidateKey(key Row, prefix bool) error {
	if n := len(s.SortKey); len(key) > n || !prefix && len(key) < n {
		return fmt.Errorf("%w: %d values for a %d-column sort key", ErrKey, len(key), n)
	}
	for i, c := range s.SortKey[:len(key)] {
		if key[i].K != s.Cols[c].Kind {
			return fmt.Errorf("%w: column %q expects %v, got %v", ErrKey, s.Cols[c].Name, s.Cols[c].Kind, key[i].K)
		}
	}
	return nil
}

// String renders the schema as "name kind, ... ORDER BY (cols)".
func (s *Schema) String() string {
	cols := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		cols[i] = c.Name + " " + c.Kind.String()
	}
	keys := make([]string, len(s.SortKey))
	for i, k := range s.SortKey {
		keys[i] = s.Cols[k].Name
	}
	return strings.Join(cols, ", ") + " ORDER BY (" + strings.Join(keys, ",") + ")"
}
