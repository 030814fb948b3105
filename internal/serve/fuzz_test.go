package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"example.com/scar/internal/online"
)

// decodeStrict mirrors decodePost's decoder configuration so the fuzz
// targets exercise exactly the wire path, minus the HTTP plumbing.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// FuzzScheduleRequestDecode drives the /schedule request path up to
// (but not including) the search: decode, defaulting, validation, cache
// key, and scenario/package materialization — the full set of
// transformations applied to untrusted bytes. Errors are expected;
// panics are findings.
func FuzzScheduleRequestDecode(f *testing.F) {
	f.Add([]byte(`{"scenario":1}`))
	f.Add([]byte(`{"scenario":6,"pattern":"het-cb","width":4,"height":4,"objective":"latency","include_schedule":true}`))
	f.Add([]byte(`{"workload_json":{"name":"w","models":[]},"mcm_json":{"pattern":"simba"}}`))
	f.Add([]byte(`{"scenario":-3,"timeout_ms":-1}`))
	f.Add([]byte(`{"width":1000000,"height":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req scheduleHTTPRequest
		if err := decodeStrict(data, &req); err != nil {
			t.Skip()
		}
		r := req.Request.withDefaults()
		_ = r.key()
		if err := r.validate(); err != nil {
			return
		}
		_, _, _, _ = r.build()
	})
}

// FuzzSimRequestDecode drives the /simulate request path through every
// wire-boundary resolution step that runs before search work: count
// bounds, policy lookup, admission-control assembly, and arrival-process
// construction.
func FuzzSimRequestDecode(f *testing.F) {
	f.Add([]byte(`{"classes":[{"scenario":1,"rate_per_sec":5}],"policy":"edf","horizon_sec":2}`))
	f.Add([]byte(`{"classes":[{"scenario":2,"arrival_times":[0,0.5,1]}],"max_queue_depth":4,"shedder":"deadline-aware","shed_margin_sec":0.1}`))
	f.Add([]byte(`{"classes":[{"scenario":1,"rate_per_sec":1,"arrival_times":[1]}]}`))
	f.Add([]byte(`{"classes":[{"scenario":1}],"high_watermark":2,"low_watermark":9}`))
	f.Add([]byte(`{"classes":[{"scenario":1,"rate_per_sec":1}],"packages":1000000000}`))
	f.Add([]byte(`{"classes":[{"scenario":1,"rate_per_sec":1e9}],"horizon_sec":1e6}`))
	f.Add([]byte(`{"classes":[` + strings.Repeat(`{"scenario":1,"rate_per_sec":1},`, MaxSimClasses) + `{"scenario":1,"rate_per_sec":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SimRequest
		if err := decodeStrict(data, &req); err != nil {
			t.Skip()
		}
		if err := req.validate(); err != nil {
			return
		}
		_, _ = online.PolicyByName(req.Policy)
		_, _ = req.admission()
		_, _ = resolveArrivals(req.Classes)
		for _, cl := range req.Classes {
			r := cl.Request.withDefaults()
			_ = r.key()
			_ = r.validate()
		}
	})
}
