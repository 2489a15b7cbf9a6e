package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"erms/internal/topology"
)

// CSV layout: two sections, each introduced by a one-cell marker row
// ("FILES" / "JOBS") followed by a header row — easy to inspect in a
// spreadsheet and to generate from real SWIM trace tooling.
//
//	FILES
//	path,size_mb,create_at_s,rank
//	/data/f000,256,0,4
//	JOBS
//	name,submit_s,file,client,compute_ms_per_mb
//	job0001,12.5,/data/f000,3,8
//
// Scenario traces (tenant tags or ranged reads) extend JOBS rows with three
// more columns — tenant,offset_mb,length_mb — and the decoder accepts either
// width, so plain SWIM-style traces stay readable by old tooling:
//
//	JOBS
//	name,submit_s,file,client,compute_ms_per_mb,tenant,offset_mb,length_mb
//	job0001,12.5,/data/f000,3,8,ads,64,16

// WriteCSV serializes the trace in the sectioned CSV layout.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	write := func(rec ...string) {
		// csv.Writer defers errors to Flush; collect there.
		_ = cw.Write(rec)
	}
	write("FILES")
	write("path", "size_mb", "create_at_s", "rank")
	for _, f := range t.Files {
		write(f.Path,
			strconv.FormatFloat(f.Size/topology.MB, 'f', -1, 64),
			strconv.FormatFloat(f.CreateAt.Seconds(), 'f', 3, 64),
			strconv.Itoa(f.Rank))
	}
	write("JOBS")
	// Scenario fields widen every row (uniform width keeps spreadsheets
	// sane); plain traces keep the classic 5-column layout.
	scenario := false
	for _, j := range t.Jobs {
		if j.Tenant != "" || j.Offset != 0 || j.Length != 0 {
			scenario = true
			break
		}
	}
	if scenario {
		write("name", "submit_s", "file", "client", "compute_ms_per_mb", "tenant", "offset_mb", "length_mb")
	} else {
		write("name", "submit_s", "file", "client", "compute_ms_per_mb")
	}
	for _, j := range t.Jobs {
		rec := []string{j.Name,
			strconv.FormatFloat(j.Submit.Seconds(), 'f', 3, 64),
			j.File,
			strconv.Itoa(j.Client),
			strconv.FormatFloat(float64(j.Compute)/float64(time.Millisecond), 'f', -1, 64)}
		if scenario {
			rec = append(rec, j.Tenant,
				strconv.FormatFloat(j.Offset/topology.MB, 'f', -1, 64),
				strconv.FormatFloat(j.Length/topology.MB, 'f', -1, 64))
		}
		write(rec...)
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses the sectioned CSV layout back into a Trace. Duration is
// inferred as the last event time rounded up to the next minute.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	tr := &Trace{}
	section := ""
	headerSeen := false
	var last time.Duration
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: csv: %w", err)
		}
		if len(rec) == 1 && (rec[0] == "FILES" || rec[0] == "JOBS") {
			section = rec[0]
			headerSeen = false
			continue
		}
		if !headerSeen {
			headerSeen = true // skip the header row
			continue
		}
		switch section {
		case "FILES":
			if len(rec) != 4 {
				return nil, fmt.Errorf("workload: csv: FILES row needs 4 fields, got %d", len(rec))
			}
			sizeMB, err1 := strconv.ParseFloat(rec[1], 64)
			createS, err2 := strconv.ParseFloat(rec[2], 64)
			rank, err3 := strconv.Atoi(rec[3])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("workload: csv: bad FILES row %v", rec)
			}
			f := FileSpec{
				Path:     rec[0],
				Size:     sizeMB * topology.MB,
				CreateAt: time.Duration(createS * float64(time.Second)),
				Rank:     rank,
			}
			tr.Files = append(tr.Files, f)
			if f.CreateAt > last {
				last = f.CreateAt
			}
		case "JOBS":
			if len(rec) != 5 && len(rec) != 8 {
				return nil, fmt.Errorf("workload: csv: JOBS row needs 5 or 8 fields, got %d", len(rec))
			}
			submitS, err1 := strconv.ParseFloat(rec[1], 64)
			client, err2 := strconv.Atoi(rec[3])
			computeMS, err3 := strconv.ParseFloat(rec[4], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("workload: csv: bad JOBS row %v", rec)
			}
			j := JobSpec{
				Name:    rec[0],
				Submit:  time.Duration(submitS * float64(time.Second)),
				File:    rec[2],
				Client:  client,
				Compute: time.Duration(computeMS * float64(time.Millisecond)),
			}
			if len(rec) == 8 {
				offMB, err4 := strconv.ParseFloat(rec[6], 64)
				lenMB, err5 := strconv.ParseFloat(rec[7], 64)
				if err4 != nil || err5 != nil {
					return nil, fmt.Errorf("workload: csv: bad JOBS row %v", rec)
				}
				j.Tenant = rec[5]
				j.Offset = offMB * topology.MB
				j.Length = lenMB * topology.MB
			}
			tr.Jobs = append(tr.Jobs, j)
			if j.Submit > last {
				last = j.Submit
			}
		default:
			return nil, fmt.Errorf("workload: csv: data before a section marker: %v", rec)
		}
	}
	if len(tr.Files) == 0 && len(tr.Jobs) == 0 {
		return nil, fmt.Errorf("workload: csv: empty trace")
	}
	if err := tr.checkTimes(); err != nil {
		return nil, err
	}
	tr.Duration = last.Truncate(time.Minute) + time.Minute
	return tr, nil
}
