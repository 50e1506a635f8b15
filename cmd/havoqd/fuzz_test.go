package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"havoqgt/internal/engine"
)

// FuzzQueryRequest drives arbitrary bytes through the /query spec boundary
// the way handleQuery does: decoded as a body, then turned into an engine
// spec — validated and made canonical — or refused. Nothing may panic, and an
// accepted spec has a non-negative deadline, is its own canonical form, and
// still validates. The committed corpus (testdata/fuzz/FuzzQueryRequest)
// holds a body of every query type and the deadline edges.
func FuzzQueryRequest(f *testing.F) {
	const n = 512
	f.Fuzz(func(t *testing.T, body []byte) {
		var req queryRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
			return
		}
		spec, err := req.spec(n)
		if err != nil {
			return
		}
		if spec.Deadline < 0 {
			t.Fatalf("%+v: accepted with deadline %v", req, spec.Deadline)
		}
		if c := engine.Canonical(spec); c != spec {
			t.Fatalf("%+v: canonical %+v canonicalizes again to %+v", req, spec, c)
		}
		if err := engine.Validate(spec, n); err != nil {
			t.Fatalf("%+v: canonical %+v no longer validates: %v", req, spec, err)
		}
	})
}
