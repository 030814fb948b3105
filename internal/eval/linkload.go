package eval

import (
	"sort"

	"example.com/scar/internal/mcm"
)

// LinkLoads maps the window's inter-chiplet traffic onto NoP links: for
// every stage-to-stage transfer of every model, the boundary activation
// bytes are charged to each directed link along the package route. It is
// the diagnostic behind the contention delta — the paper's "NoP traffic
// conflicts" — and lets callers inspect where a schedule congests the
// interposer.
func (c *Compiled) LinkLoads(w TimeWindow) map[mcm.Link]int64 {
	loads := map[mcm.Link]int64{}
	for _, mi := range w.Models() {
		segs := w.ModelSegments(mi)
		// The scenario's own batch, unclamped: a Batch-0 model moves no
		// bytes.
		batch := int64(c.sc.Models[mi].Batch)
		from := segs[0].Chiplet
		for _, s := range segs[1:] {
			if s.Chiplet == from {
				continue // same-chiplet segments fuse into one stage
			}
			bytes := c.models[mi].perSampleIn[s.First] * batch
			for _, link := range c.m.RouteLinks(from, s.Chiplet) {
				loads[link] += bytes
			}
			from = s.Chiplet
		}
	}
	return loads
}

// MaxLinkLoad returns the hottest link and its byte count (zero value
// when the window has no inter-chiplet traffic).
func (c *Compiled) MaxLinkLoad(w TimeWindow) (mcm.Link, int64) {
	loads := c.LinkLoads(w)
	links := make([]mcm.Link, 0, len(loads))
	for link := range loads {
		links = append(links, link)
	}
	// Sort before scanning so the winner among equally-hot links is the
	// same on every run, independent of map iteration order.
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	var best mcm.Link
	var max int64
	for _, link := range links {
		if loads[link] > max {
			best, max = link, loads[link]
		}
	}
	return best, max
}
