package tracegen

import (
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"sdpm/internal/access"
	"sdpm/internal/layout"
	"sdpm/internal/trace"
	"sdpm/internal/workloads"
)

// TestRecordLayout pins the size of the trace and site records and
// that they hold no pointer: a string, slice, map or interface field
// would make the garbage collector scan every trace and site slice
// again.
func TestRecordLayout(t *testing.T) {
	if n := unsafe.Sizeof(trace.Event{}); n > 96 {
		t.Errorf("trace.Event is %d bytes, want at most 96", n)
	}
	if n := unsafe.Sizeof(Site{}); n > 56 {
		t.Errorf("tracegen.Site is %d bytes, want at most 56", n)
	}
	for _, v := range []any{trace.Event{}, trace.Request{}, trace.PowerOp{}, Site{}} {
		typ := reflect.TypeOf(v)
		if path, ok := pointerFree(typ, typ.Name()); !ok {
			t.Errorf("%s holds a pointer at %s", typ, path)
		}
	}
}

// pointerFree reports whether typ holds no pointer, string, slice,
// map, interface, channel or function, else the path of the first
// field that does.
func pointerFree(typ reflect.Type, path string) (string, bool) {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return "", true
	case reflect.Array:
		return pointerFree(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p, ok := pointerFree(f.Type, path+"."+f.Name); !ok {
				return p, false
			}
		}
		return "", true
	default:
		return path, false
	}
}

// TestSitesConcurrent runs Sites for the six workloads on several
// goroutines at once, as concurrent preparations do (the sweep's
// workers, dpmd requests that miss the instance cache), and requires
// every result to equal a serial run's: the walks share the pool of
// site buffers, and no walk may see another's sites.
func TestSitesConcurrent(t *testing.T) {
	type walk struct {
		sites []Site
		files []string
	}
	benches := workloads.All()
	subs := make([]*layout.Subsystem, len(benches))
	want := make([]walk, len(benches))
	for i, b := range benches {
		subs[i] = layout.MustSubsystem(workloads.DefaultDisks)
		if err := access.PlaceArraysStaggered(b.Program, subs[i], workloads.DefaultDisks, workloads.UnitBytes, nil); err != nil {
			t.Fatal(err)
		}
		ss, files, err := Sites(b.Program, subs[i], b.CacheUnits)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = walk{ss, files}
	}
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*len(benches))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine starts at another benchmark, so walks of
			// different sizes overlap.
			for k := range benches {
				i := (g + k) % len(benches)
				ss, files, err := Sites(benches[i].Program, subs[i], benches[i].CacheUnits)
				switch {
				case err != nil:
					errs <- err.Error()
				case !slices.Equal(ss, want[i].sites) || !slices.Equal(files, want[i].files):
					errs <- benches[i].Name + ": concurrent walk differs from the serial one"
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
