package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/service"
)

// jobRun is what one client saw of one job, with the times it saw it at.
type jobRun struct {
	Spec service.Spec
	Seed uint64

	ID     string
	Cached bool // the submit reply was already terminal (HTTP 200)

	Start      time.Time // before the submit request
	Submitted  time.Time // submit reply decoded
	StreamOpen time.Time // stream response headers received (stream path)
	FirstEvent time.Time
	StepRecv   []time.Time
	Steps      []service.StepView
	Done       time.Time // "done" event received, or the submit reply for the wait path
	End        time.Time // result decoded

	Final       service.JobView
	Result      service.ResultView
	ResultBytes int
	Err         error
}

func (j *jobRun) latency() time.Duration { return j.End.Sub(j.Start) }

// runJob sends one job the way the workload's callers do. With stream set:
// POST /v1/jobs, read /stream to its "done" event, GET /result — a coupled
// code following every step. Without: POST, then GET /result?wait=true — a
// sweep driver that only wants the answer.
func runJob(st *stack, spec service.Spec, stream bool) *jobRun {
	j := &jobRun{Spec: spec, Seed: *spec.Seed}
	body, err := json.Marshal(spec)
	if err != nil {
		j.Err = err
		return j
	}
	j.Start = time.Now()
	resp, err := st.client.Post(st.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		j.Err = fmt.Errorf("submit: %w", err)
		return j
	}
	var jv service.JobView
	err = json.NewDecoder(resp.Body).Decode(&jv)
	resp.Body.Close()
	j.Submitted = time.Now()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		j.Err = fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		return j
	}
	if err != nil {
		j.Err = fmt.Errorf("submit reply: %w", err)
		return j
	}
	j.ID, j.Cached, j.Final = jv.ID, resp.StatusCode == http.StatusOK, jv
	j.Done = j.Submitted

	resultURL := st.url + "/v1/jobs/" + j.ID + "/result"
	if stream {
		if err := j.follow(st); err != nil {
			j.Err = err
			return j
		}
	} else {
		resultURL += "?wait=true"
	}

	resp, err = st.client.Get(resultURL)
	if err != nil {
		j.Err = fmt.Errorf("result: %w", err)
		return j
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	if err == nil {
		err = json.Unmarshal(data, &j.Result)
	}
	j.End = time.Now()
	j.ResultBytes = len(data)
	if err != nil {
		j.Err = fmt.Errorf("result: %w", err)
	}
	return j
}

// follow reads the job's server-sent event stream until the "done" event.
func (j *jobRun) follow(st *stack) error {
	resp, err := st.client.Get(st.url + "/v1/jobs/" + j.ID + "/stream")
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	defer resp.Body.Close()
	j.StreamOpen = time.Now()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	var event, data string
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return fmt.Errorf("stream ended before done: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(line[len("data:"):])
		case line == "" && event != "":
			now := time.Now()
			if j.FirstEvent.IsZero() {
				j.FirstEvent = now
			}
			switch event {
			case "step":
				var sv service.StepView
				if err := json.Unmarshal([]byte(data), &sv); err != nil {
					return fmt.Errorf("step event: %w", err)
				}
				j.Steps = append(j.Steps, sv)
				j.StepRecv = append(j.StepRecv, now)
			case "done":
				j.Done = now
				if err := json.Unmarshal([]byte(data), &j.Final); err != nil {
					return fmt.Errorf("done event: %w", err)
				}
				return nil
			}
			event, data = "", ""
		}
	}
}

// fetchFinal reads the job's closing status for a client that did not follow
// the stream (its only status so far is the submit reply). Called after the
// op, outside its timing.
func (j *jobRun) fetchFinal(st *stack) {
	if j.Err != nil || !j.StreamOpen.IsZero() {
		return
	}
	if err := getJSON(st, st.url+"/v1/jobs/"+j.ID, &j.Final); err != nil {
		j.Err = fmt.Errorf("status: %w", err)
	}
}

// getJSON fetches one JSON document from the stack (status, trace, metrics
// pages are read after an op, outside its timing).
func getJSON(st *stack, url string, out any) error {
	resp, err := st.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
