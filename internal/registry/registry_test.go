package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/ml/linreg"
	"repro/internal/ml/modelio"
)

// trainedEnvelope builds a real (tiny) fitted linear model and returns
// its envelope bytes. Varying bias shifts the payload so tests can
// produce distinct envelopes.
func trainedEnvelope(t *testing.T, bias float64) []byte {
	t.Helper()
	m := linreg.New()
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{2 + bias, 4 + bias, 6 + bias, 8 + bias}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := modelio.SaveWithMeta(&buf, m, &modelio.Meta{Features: []string{"used_swap"}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// legacyV1Envelope hand-crafts a version-1 envelope (no meta field) —
// the format the first modelio shipped — wrapping a fitted model's
// payload. The registry must serve it byte-identically.
func legacyV1Envelope(t *testing.T) []byte {
	t.Helper()
	m := linreg.New()
	if err := m.Fit([][]float64{{1}, {2}, {3}}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf(`{"format":"f2pm-model","version":1,"kind":"linear","payload":%s}`+"\n", payload))
}

func TestPublishFetchRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		env  []byte
	}{
		{"v2", trainedEnvelope(t, 0)},
		{"legacy-v1", legacyV1Envelope(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(New())
			defer srv.Close()
			c := NewClient(srv.URL, nil)

			res, err := c.Publish(context.Background(), tc.env)
			if err != nil {
				t.Fatal(err)
			}
			if res.Version != 1 || !res.Changed {
				t.Fatalf("publish = %+v, want version 1, changed", res)
			}

			got, etag, err := c.FetchModel(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, tc.env) {
				t.Fatalf("served envelope differs from published bytes:\n got %q\nwant %q", got, tc.env)
			}
			if etag != res.ETag {
				t.Fatalf("GET etag %q != publish etag %q", etag, res.ETag)
			}
			// The round-tripped bytes must load into a working model.
			m, _, err := modelio.LoadWithMeta(bytes.NewReader(got))
			if err != nil {
				t.Fatal(err)
			}
			if m.Name() != "linear" {
				t.Fatalf("loaded kind %q, want linear", m.Name())
			}
		})
	}
}

func TestETagChangesIffBytesChange(t *testing.T) {
	reg := New()
	envA := trainedEnvelope(t, 0)
	envB := trainedEnvelope(t, 10)

	resA, err := reg.SetModel(envA)
	if err != nil {
		t.Fatal(err)
	}
	// Identical bytes: same ETag, same version, not a change.
	resA2, err := reg.SetModel(append([]byte(nil), envA...))
	if err != nil {
		t.Fatal(err)
	}
	if resA2.ETag != resA.ETag || resA2.Version != resA.Version || resA2.Changed {
		t.Fatalf("idempotent republish bumped state: %+v then %+v", resA, resA2)
	}
	// Different bytes: new ETag, new version.
	resB, err := reg.SetModel(envB)
	if err != nil {
		t.Fatal(err)
	}
	if resB.ETag == resA.ETag {
		t.Fatal("different envelope bytes produced the same ETag")
	}
	if resB.Version != resA.Version+1 || !resB.Changed {
		t.Fatalf("changed publish = %+v, want version %d", resB, resA.Version+1)
	}
}

func TestConditionalGet(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	env := trainedEnvelope(t, 0)
	c := NewClient(srv.URL, nil)
	res, err := c.Publish(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}

	get := func(inm string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/model", nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := get(res.ETag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("matching If-None-Match: status %d, want 304", resp.StatusCode)
	}
	if resp := get(`"deadbeef"`); resp.StatusCode != http.StatusOK {
		t.Fatalf("stale If-None-Match: status %d, want 200", resp.StatusCode)
	}
	// Multiple candidates, one matching.
	if resp := get(`"deadbeef", ` + res.ETag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("multi-tag If-None-Match: status %d, want 304", resp.StatusCode)
	}
}

func TestRejectGarbageKeepsServing(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	c := NewClient(srv.URL, nil)
	env := trainedEnvelope(t, 0)
	if _, err := c.Publish(context.Background(), env); err != nil {
		t.Fatal(err)
	}

	for _, bad := range [][]byte{
		[]byte("not json"),
		[]byte(`{"format":"something-else","version":2,"kind":"linear","payload":{}}`),
		[]byte(`{"format":"f2pm-model","version":99,"kind":"linear","payload":{}}`),
		[]byte(`{"format":"f2pm-model","version":2,"kind":"nonsense","payload":{}}`),
		// A packed matrix whose header claims more rows than its data holds.
		[]byte(`{"format":"f2pm-model","version":3,"kind":"lssvm","payload":{"dim":1,"kernel":{"kind":"linear"},"mean":[0],"std":[1],"train_x":{"rows":2,"cols":1,"data":"AAAAAAAA8D8="},"alpha":"AAAAAAAA8D8AAAAAAADwPw=="}}`),
		// NaN bits in a packed vector.
		[]byte(`{"format":"f2pm-model","version":3,"kind":"lssvm","payload":{"dim":1,"kernel":{"kind":"linear"},"mean":[0],"std":[1],"train_x":{"rows":1,"cols":1,"data":"AAAAAAAA8D8="},"alpha":"AAAAAAAA+H8="}}`),
	} {
		if _, err := c.Publish(context.Background(), bad); err == nil {
			t.Fatalf("garbage %q was accepted", bad)
		} else if !strings.Contains(err.Error(), "400") {
			t.Fatalf("garbage %q: error %v, want a 400", bad, err)
		}
	}
	// The original model is still served, byte-identical.
	got, _, err := c.FetchModel(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, env) {
		t.Fatal("garbage publish corrupted the served envelope")
	}
}

// TestSetModelKeepsItsOwnCopy pins the in-process publish: the caller's
// slice stays the caller's (the PUT handler, which owns the body it
// read, hands it over without a copy).
func TestSetModelKeepsItsOwnCopy(t *testing.T) {
	reg := New()
	env := trainedEnvelope(t, 0)
	want := bytes.Clone(env)
	if _, err := reg.SetModel(env); err != nil {
		t.Fatal(err)
	}
	clear(env)
	got, _, ok := reg.Model()
	if !ok || !bytes.Equal(got, want) {
		t.Fatal("the registry serves the caller's slice, not a copy of it")
	}
}

func TestNoModelIs404(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("empty registry GET: status %d, want 404", resp.StatusCode)
	}
}

func TestHeartbeatAndHealth(t *testing.T) {
	now := time.Unix(5_000_000, 0)
	reg := New(WithClock(func() time.Time { return now }), WithLivenessWindow(30*time.Second))
	srv := httptest.NewServer(reg)
	defer srv.Close()
	c := NewClient(srv.URL, nil)

	env := trainedEnvelope(t, 0)
	res, err := c.Publish(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}

	etag, err := c.SendHeartbeat(context.Background(), Heartbeat{
		Node: "node-a", ETag: res.ETag, Sessions: 3, Predictions: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if etag != res.ETag {
		t.Fatalf("heartbeat response etag %q, want %q", etag, res.ETag)
	}
	if _, err := c.SendHeartbeat(context.Background(), Heartbeat{
		Node: "node-b", ETag: `"old"`, Stale: true, StaleAgeSec: 12, LastError: "connection refused",
	}); err != nil {
		t.Fatal(err)
	}

	// Age node-b past the liveness window via the injected clock.
	h, err := c.FetchHealth(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Nodes) != 2 || h.ModelVersion != 1 || h.ModelETag != res.ETag {
		t.Fatalf("health = %+v", h)
	}
	if !h.Nodes[0].Alive || !h.Nodes[0].Current || h.Nodes[0].Node != "node-a" {
		t.Fatalf("node-a row = %+v, want alive and current", h.Nodes[0])
	}
	if h.Nodes[1].Current || !h.Nodes[1].Stale {
		t.Fatalf("node-b row = %+v, want stale and not current", h.Nodes[1])
	}
	if h.AliveNodes != 2 || h.StaleNodes != 1 {
		t.Fatalf("alive=%d stale=%d, want 2/1", h.AliveNodes, h.StaleNodes)
	}

	now = now.Add(31 * time.Second)
	h = reg.Health()
	if h.Nodes[0].Alive || h.AliveNodes != 0 {
		t.Fatalf("after 31s of silence: %+v, want no node alive", h)
	}

	// A heartbeat without a node id is rejected.
	if _, err := c.SendHeartbeat(context.Background(), Heartbeat{}); err == nil {
		t.Fatal("anonymous heartbeat accepted")
	}
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", resp.StatusCode)
	}
}
