// Loop-level speculation on a Mandelbrot render: rows are chunked and
// speculated with chained in-order forks through mutls.For (each chunk's
// region forks the next chunk before doing its own work), then the image is
// printed as ASCII art. This is the transformed shape of the paper's
// Figure 2 applied to a real loop, with the protocol supplied by the
// library.
package main

import (
	"fmt"
	"log"

	"repro/mutls"
)

const (
	width   = 48
	height  = 24
	maxIter = 256
	chunks  = 8
)

var shades = []byte(" .:-=+*#%@")

func main() {
	rt, err := mutls.New(mutls.Options{CPUs: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	var img mutls.Addr
	tn, err := rt.Run(func(t *mutls.Thread) {
		img = t.Alloc(8 * width * height)
		mutls.For(t, chunks, mutls.ForOptions{Model: mutls.InOrder}, func(c *mutls.Thread, idx int) {
			for y := idx; y < height; y += chunks {
				c.CheckPoint() // per-row poll: squash/cancel interrupts between rows
				ci := -1.2 + 2.4*float64(y)/float64(height)
				for x := 0; x < width; x++ {
					cr := -2.1 + 3.0*float64(x)/float64(width)
					zr, zi, it := 0.0, 0.0, 0
					for it < maxIter && zr*zr+zi*zi <= 4 {
						zr, zi = zr*zr-zi*zi+cr, 2*zr*zi+ci
						it++
					}
					c.Tick(int64(it))
					c.StoreInt64(img+mutls.Addr(8*(y*width+x)), int64(it))
				}
			}
		})
	})
	if err != nil {
		log.Fatal(err)
	}

	arena := rt.Space().Arena
	for y := 0; y < height; y++ {
		line := make([]byte, width)
		for x := 0; x < width; x++ {
			it := arena.ReadInt64(mutls.Addr(uint64(img) + uint64(8*(y*width+x))))
			shade := int(it) * (len(shades) - 1) / maxIter
			line[x] = shades[shade]
		}
		fmt.Println(string(line))
	}
	s := rt.Stats()
	fmt.Printf("rendered with %d speculative commits in %d virtual units (coverage %.1f)\n",
		s.Commits, tn, s.Coverage())
}
