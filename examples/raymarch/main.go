// raymarch renders an ASCII sphere-with-floor scene by signed-distance-field
// ray marching — the kind of graphics kernel the paper's introduction
// motivates. The scene is composed from higher-order functions (the distance
// field is a *function value* built by combinators); lambda mangling
// flattens the whole composition into first-order loops.
package main

import (
	"fmt"
	"io"
	"os"

	"thorin/internal/analysis"
	"thorin/internal/driver"
	"thorin/internal/transform"
	"thorin/internal/vm"
)

const src = `
// Signed distance to a sphere at (cx, cy, cz) with radius r.
fn sphere_dist(px: f64, py: f64, pz: f64,
               cx: f64, cy: f64, cz: f64, r: f64) -> f64 {
	let dx = px - cx;
	let dy = py - cy;
	let dz = pz - cz;
	sqrt_approx(dx * dx + dy * dy + dz * dz) - r
}

// Newton iteration square root (the language has no math library).
fn sqrt_approx(x: f64) -> f64 {
	if x <= 0.0 { return 0.0; }
	let mut g = x;
	if g > 1.0 { g = x / 2.0 + 0.5; }
	for i in 0 .. 12 { g = (g + x / g) / 2.0; }
	g
}

fn min2(a: f64, b: f64) -> f64 { if a < b { a } else { b } }

// The scene: a union of two spheres and a floor plane; scene itself is
// passed around as a function value.
fn scene(px: f64, py: f64, pz: f64) -> f64 {
	let s1 = sphere_dist(px, py, pz, 0.0, 0.0, 3.0, 1.0);
	let s2 = sphere_dist(px, py, pz, 1.2, 0.6, 2.4, 0.4);
	let floor = py + 1.0;
	min2(min2(s1, s2), floor)
}

// March a ray from the origin along (dx, dy, dz) through a distance field
// passed as a function value; returns the number of steps (a cheap
// ambient-occlusion shade) or -1 when the ray escapes.
fn march(dx: f64, dy: f64, dz: f64, field: fn(f64, f64, f64) -> f64) -> i64 {
	let mut t = 0.0;
	let mut steps = 0;
	while steps < 48 {
		let d = field(t * dx, t * dy, t * dz);
		if d < 0.004 { return steps; }
		t = t + d;
		if t > 12.0 { return -1; }
		steps = steps + 1;
	}
	-1
}

// Render w x h characters; every pixel invokes march with the scene as the
// field argument. Returns a checksum of all shades.
fn main(w: i64) -> i64 {
	let h = w / 2;
	let mut checksum = 0;
	for y in 0 .. h {
		for x in 0 .. w {
			let dx = (x as f64 / w as f64 - 0.5) * 1.6;
			let dy = 0.5 - y as f64 / h as f64;
			let dz = 1.0;
			let s = march(dx, dy, dz, scene);
			if s < 0 {
				print_char(' ');
			} else {
				if s < 8 { print_char('@'); }
				else if s < 12 { print_char('#'); }
				else if s < 17 { print_char('+'); }
				else if s < 24 { print_char('.'); }
				else { print_char(' '); }
				checksum = checksum + s;
			}
		}
		print_char('\n');
	}
	checksum
}
`

func main() {
	const width = 72
	got, c := render(transform.O2, os.Stdout, width)
	fmt.Printf("\nchecksum %d — rendered with %d VM instructions, %d closures, %d indirect calls\n",
		got, c.Instructions, c.ClosureAllocs, c.IndirectCalls)

	_, c0 := render(transform.O0, nil, width)
	fmt.Printf("the same scene without lambda mangling: %d instructions, %d closures, %d indirect calls\n",
		c0.Instructions, c0.ClosureAllocs, c0.IndirectCalls)
}

// render compiles the scene under spec and runs it, printing to out.
func render(spec string, out io.Writer, width int64) (int64, vm.Counters) {
	res, err := driver.CompileSpec(src, spec, analysis.ScheduleSmart, driver.Config{})
	if err != nil {
		panic(err)
	}
	got, c, err := driver.ExecSteps(res.Program, out, 0, width)
	if err != nil {
		panic(err)
	}
	return got, c
}
