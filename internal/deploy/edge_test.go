package deploy

import (
	"context"
	"strings"
	"testing"
)

// TestStartEdgeRefusals: what StartEdge cannot assemble fails with an
// error naming the reason, after releasing what it had dialed.
func TestStartEdgeRefusals(t *testing.T) {
	for _, tc := range []struct {
		name    string
		targets []string
		algo    Algo
		want    string
	}{
		{"no target", nil, SLIBackend, "at least one target"},
		{"unknown algorithm", []string{"127.0.0.1:1"}, "cmp", `unknown algorithm "cmp"`},
		{"shards without whole-set shipping", []string{"127.0.0.1:1", "127.0.0.1:2"}, SLIDB, "require sli-backend"},
		{"unreachable target", []string{"127.0.0.1:1"}, SLIBackend, "start cache invalidation"},
	} {
		edge, err := StartEdge(context.Background(), "127.0.0.1:0", tc.targets, tc.algo, Paper())
		if err == nil {
			edge.Close()
			t.Errorf("%s: started", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}
