package daemon

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/open-metadata/xmit/internal/obs"
)

// TestMain audits what the suite leaves behind, as echan's does: every
// goroutine a daemon started must be gone after its Close, and every
// pooled buffer a broker took must be back.  Both settle asynchronously (a
// closed connection's reader notices, a writer returns from its last
// write), so the audit polls for a bounded time before it calls a leak.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if err := auditResources(base); err != nil {
			fmt.Fprintln(os.Stderr, "FAIL: resource audit:", err)
			code = 1
		}
	}
	os.Exit(code)
}

func auditResources(baseGoroutines int) error {
	var leaked int
	var gets, puts float64
	deadline := time.Now().Add(5 * time.Second)
	for {
		leaked = runtime.NumGoroutine() - baseGoroutines
		gets, _ = obs.Default().Value("pbio_pool_get_total")
		puts, _ = obs.Default().Value("pbio_pool_put_total")
		if (leaked <= 0 && puts == gets) || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if puts != gets {
		return fmt.Errorf("pbio pool: %v gets, %v puts", gets, puts)
	}
	if leaked > 0 {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		return fmt.Errorf("%d goroutines outlived the suite:\n%s", leaked, buf)
	}
	return nil
}

// httpGet fetches url, conditionally when ifNoneMatch is set, on a
// connection that is not kept alive, so no idle client goroutine outlives
// the test.  It returns the status, the body and the ETag.
func httpGet(t *testing.T, url, ifNoneMatch string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("ETag")
}

// closer is the part of a daemon handle the tests' cleanup needs.
type closer interface{ Close() error }

// closeOnCleanup closes d when the test ends and fails it if Close errs.
func closeOnCleanup(t *testing.T, d closer) {
	t.Cleanup(func() {
		if err := d.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
}
