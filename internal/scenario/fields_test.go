package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// numericLeaves lists the dotted Go path of every numeric leaf under
// typ, and fails tb on a leaf that is neither a struct nor numeric:
// the field table, and every rendering of a Config read from it, holds
// numbers only.
func numericLeaves(tb testing.TB, typ reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Struct:
			out = append(out, numericLeaves(tb, f.Type, prefix+f.Name+".")...)
		case reflect.Int, reflect.Int64, reflect.Float64:
			out = append(out, prefix+f.Name)
		default:
			tb.Errorf("Config.%s%s is a %s, neither a struct nor a number", prefix, f.Name, f.Type)
		}
	}
	return out
}

// Every numeric leaf of Config, nested Topology, Traceroute and GeoDB
// fields included, has exactly one row in Fields, and every row names
// a real field under one document path: a new Config field cannot
// land without a bound and a document path, nor be anything but a
// number.
func TestFieldsCoverConfig(t *testing.T) {
	rows := map[string]int{}
	paths := map[string]bool{}
	for _, f := range Fields {
		rows[f.GoPath]++
		if paths[f.Path] {
			t.Errorf("document path %s has two rows", f.Path)
		}
		paths[f.Path] = true
	}
	leaves := numericLeaves(t, reflect.TypeOf(Config{}), "")
	for _, leaf := range leaves {
		if rows[leaf] != 1 {
			t.Errorf("Config.%s has %d rows in Fields, want exactly 1", leaf, rows[leaf])
		}
		delete(rows, leaf)
	}
	for goPath := range rows {
		t.Errorf("row %s names no numeric field of Config", goPath)
	}
	if t.Failed() {
		return
	}
	// An integer bound sits on an integer field, which Set rounds into.
	for _, f := range Fields {
		var c Config
		want := 2.6
		if f.Bound.Integer() {
			want = 3
		}
		if f.Set(&c, 2.6); f.Get(&c) != want {
			t.Errorf("%s: Set(2.6) then get = %v, want %v", f.GoPath, f.Get(&c), want)
		}
	}
}

// A non-finite value is outside every bound.
func TestValidateRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.NaN()} {
		c := TestConfig()
		c.Topology.Scale = v
		c.ComplexCoverage = v
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "Topology.Scale") ||
			!strings.Contains(err.Error(), "ComplexCoverage") {
			t.Errorf("%v: err = %v, want both fields rejected", v, err)
		}
	}
}
