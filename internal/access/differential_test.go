package access

import (
	"math/rand"
	"reflect"
	"testing"

	"sdpm/internal/layout"
	"sdpm/internal/progen"
)

// TestWalkerMatchesBruteForceGenerated compares the boundary-jumping
// walker against the per-element reference implementation on randomly
// generated programs — including column-major, blocked, strided,
// reversed, and constant-subscript references.
func TestWalkerMatchesBruteForceGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for trial := 0; trial < 120; trial++ {
		p := progen.MustGenerate(rng, progen.DefaultOptions())
		sub := layout.MustSubsystem(1 + rng.Intn(6))
		factor := 1 + rng.Intn(sub.NumDisks())
		unit := int64(512 * (1 + rng.Intn(4)))
		ok := true
		for i, a := range p.Arrays {
			st := layout.Striping{StartDisk: i % sub.NumDisks(), Factor: factor, UnitBytes: unit}
			if err := sub.Place(a.Name, a.SizeBytes(), st); err != nil {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		got, err := Touches(p, sub)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bruteTouches(t, p, sub)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%s): walker diverged from brute force\n got %d touches\nwant %d touches",
				trial, p.Name, len(got), len(want))
		}
	}
}

// FuzzWalkMatchesBruteForce generates a program and a placement from
// the fuzzed values and requires the walk, its repeats expanded, to
// equal the per-element reference.
func FuzzWalkMatchesBruteForce(f *testing.F) {
	f.Add(int64(909), uint8(3), uint8(2), uint8(0))
	f.Add(int64(1), uint8(0), uint8(0), uint8(3))
	f.Add(int64(-77), uint8(5), uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, disks, factor, unit uint8) {
		p := progen.MustGenerate(rand.New(rand.NewSource(seed)), progen.DefaultOptions())
		nd := 1 + int(disks)%6
		sub := layout.MustSubsystem(nd)
		if err := PlaceArraysStaggered(p, sub, 1+int(factor)%nd, 512*(1+int64(unit)%4), nil); err != nil {
			t.Fatal(err)
		}
		got, err := Touches(p, sub)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteTouches(t, p, sub); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: walker diverged from brute force: got %d touches, want %d", p.Name, len(got), len(want))
		}
	})
}
