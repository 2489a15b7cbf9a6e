package hdfs

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"erms/internal/metrics"
)

// TestEveryMetricsFieldIsRegisteredAndSummed guards the metricFields
// table that RegisterMetrics and Metrics.Add walk: every numeric field of
// Metrics, found by reflection, must surface as a registry gauge and must
// be added by Add. Each field gets a value no other gauge can show, so a
// field left out of the table is named. The checkpoint's
// Metrics.checkpointed reads only the table's durable rows, so it is not
// held to every field here.
func TestEveryMetricsFieldIsRegisteredAndSummed(t *testing.T) {
	_, c := newCluster(t)
	v := reflect.ValueOf(&c.metrics).Elem()
	want := map[string]string{} // field name -> the value /metrics must print
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		unique := 770000 + i
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(unique))
			want[name] = fmt.Sprintf("%d", unique)
		case reflect.Float64:
			f.SetFloat(float64(unique) + 0.5)
			want[name] = fmt.Sprintf("%d.5", unique)
		default:
			t.Fatalf("Metrics.%s has kind %s: teach this test and the three field lists about it", name, f.Kind())
		}
	}

	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	printed := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(name, "#") {
			printed[val] = true
		}
	}
	for name, val := range want {
		if !printed[val] {
			t.Errorf("Metrics.%s is not registered by RegisterMetrics (no gauge reads %s)", name, val)
		}
	}

	sum := reflect.ValueOf(c.metrics.Add(c.metrics))
	for i := 0; i < sum.NumField(); i++ {
		name := sum.Type().Field(i).Name
		var got, one float64
		if sum.Field(i).Kind() == reflect.Int {
			got, one = float64(sum.Field(i).Int()), float64(v.Field(i).Int())
		} else {
			got, one = sum.Field(i).Float(), v.Field(i).Float()
		}
		if got != 2*one {
			t.Errorf("Metrics.Add drops %s: m.Add(m) = %v, want %v", name, got, 2*one)
		}
	}
}
