package service

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// Every wire option reaches core: each OptionsJSON field, set alone to
// a valid sample, must decode without error into a core.Options that
// differs from the empty-wire result. A field added without a sample
// fails here, and so does one that buildOptions never applies.
func TestOptionsJSONFieldsReachCore(t *testing.T) {
	n, threshold, maxEValue, maxCandidates := 10, 30, 1.0, 5
	samples := map[string]any{
		"Engine":        "rasc",
		"N":             &n,
		"Threshold":     &threshold,
		"MaxEValue":     &maxEValue,
		"Traceback":     true,
		"Workers":       2,
		"Kernel":        "scalar",
		"ShardSize":     4,
		"InFlight":      3,
		"StreamWorkers": 2,
		"GeneticCode":   "mito",
		"MaxCandidates": &maxCandidates,
		"SearchSpace":   &SearchSpaceJSON{DBLen: 1000, DBSeqs: 10},
	}
	empty, err := buildOptions(OptionsJSON{})
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(OptionsJSON{})
	for i := range typ.NumField() {
		field := typ.Field(i)
		sample, ok := samples[field.Name]
		if !ok {
			t.Errorf("OptionsJSON.%s has no sample value", field.Name)
			continue
		}
		delete(samples, field.Name)
		var oj OptionsJSON
		reflect.ValueOf(&oj).Elem().Field(i).Set(reflect.ValueOf(sample))
		got, err := buildOptions(oj)
		if err != nil {
			t.Errorf("OptionsJSON.%s = %v: %v", field.Name, sample, err)
			continue
		}
		if reflect.DeepEqual(got, empty) {
			t.Errorf("OptionsJSON.%s = %v leaves core.Options at the defaults", field.Name, sample)
		}
	}
	for name := range samples {
		t.Errorf("sample for %s names no OptionsJSON field", name)
	}
}

// An explicit wire "threshold": 0 reaches the step-2 engine instead of
// being taken for unset and run at the default 38; the engine then
// rejects it, so the job fails naming the value it was given.
func TestWireZeroThresholdReachesEngine(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	b0, b1 := testWorkload(t, 4, 61)
	zero := 0
	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequestJSON{
		Query:   bankToJSON(b0),
		Subject: bankToJSON(b1),
		Options: OptionsJSON{Threshold: &zero},
	})
	sub := decodeJSON[map[string]string](t, resp)
	st := pollDone(t, ts.URL, sub["id"])
	if st.State != string(JobFailed) || !strings.Contains(st.Error, "threshold must be positive, got 0") {
		t.Fatalf("threshold 0 job: state %s, error %q; want failed by the engine's threshold check", st.State, st.Error)
	}
}
