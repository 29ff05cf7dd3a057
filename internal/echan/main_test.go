package echan

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain audits what the suite leaves behind: every goroutine a test
// started must be gone, and every pooled buffer a test took must be back.
// Both settle asynchronously after the last test (a closed connection's
// reader notices, a writer goroutine returns from its last write), so the
// audit polls for a bounded time before it calls a leak.
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
		gets, puts = poolBalance()
		if (leaked <= 0 && puts == gets) || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if puts > gets {
		return fmt.Errorf("pbio pool: %v puts exceed %v gets (double release)", puts, gets)
	}
	if puts < gets {
		return fmt.Errorf("pbio pool: %v of %v buffers never returned", gets-puts, gets)
	}
	if leaked > 0 {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		return fmt.Errorf("%d goroutines outlived the suite:\n%s", leaked, buf)
	}
	return nil
}
