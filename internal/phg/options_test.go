package phg

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"hyperbal/internal/hgp"
)

// nonZeroSerial builds an hgp.Options with every exported field set to a
// non-zero value via reflection, so the test fails to build a fixture (and
// therefore fails) the moment a new field is added with an unsupported
// kind — keeping the preservation check below exhaustive by construction.
func nonZeroSerial(t *testing.T) hgp.Options {
	t.Helper()
	var o hgp.Options
	rv := reflect.ValueOf(&o).Elem()
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rv.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(int64(i + 3))
		case reflect.Float32, reflect.Float64:
			f.SetFloat(float64(i) + 0.25)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString("x")
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 2, 2))
		default:
			t.Fatalf("hgp.Options.%s has kind %s: teach nonZeroSerial how to set it",
				rt.Field(i).Name, f.Kind())
		}
		if f.IsZero() {
			t.Fatalf("hgp.Options.%s still zero after fixture setup", rt.Field(i).Name)
		}
	}
	return o
}

// TestOptionsPreserveSerial is the regression test for the withDefaults
// bug that rebuilt Options.Serial field-by-field and silently dropped
// DirectKway, KwayFM, DisableMatchFilter and Parallelism.
func TestOptionsPreserveSerial(t *testing.T) {
	in := nonZeroSerial(t)
	out := Options{Serial: in}.withDefaults().Serial

	rvIn := reflect.ValueOf(in)
	rvOut := reflect.ValueOf(out)
	rt := rvIn.Type()
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		if rvOut.Field(i).IsZero() {
			t.Errorf("withDefaults zeroed Serial.%s", name)
		}
		if !reflect.DeepEqual(rvIn.Field(i).Interface(), rvOut.Field(i).Interface()) {
			t.Errorf("withDefaults changed Serial.%s: %v -> %v",
				name, rvIn.Field(i).Interface(), rvOut.Field(i).Interface())
		}
	}
}

// TestCoarseSolveRankLocalParallelism is the regression test for rank
// oversubscription: with Parallelism unset, each SPMD rank must fall back
// to a serial coarse solve (observable through the serialized-solve
// counter), an explicit setting must win, and the partitions must be
// byte-identical either way.
func TestCoarseSolveRankLocalParallelism(t *testing.T) {
	const np = 4
	h := randomHG(rand.New(rand.NewSource(7)), 300, 450, 6)
	base := Options{Serial: hgp.Options{K: 4, Imbalance: 0.10, Seed: 42}}

	before := obsOversubGuarded.Load()
	def := runParallel(t, np, h, base)
	if got := obsOversubGuarded.Load() - before; got != np {
		t.Errorf("default options: %d ranks serialized their coarse solve, want %d", got, np)
	}

	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		opt := base
		opt.Serial.Parallelism = par
		before = obsOversubGuarded.Load()
		got := runParallel(t, np, h, opt)
		if d := obsOversubGuarded.Load() - before; d != 0 {
			t.Errorf("Parallelism=%d: serialized-solve guard fired %d times, want 0 (explicit setting must win)", par, d)
		}
		for v := range def.Parts {
			if got.Parts[v] != def.Parts[v] {
				t.Fatalf("Parallelism=%d: partition differs from default at vertex %d", par, v)
			}
		}
	}
}
