package main

// Example runs the program and pins what it prints.
func Example() {
	main()
	// Output:
	// warehouse at 2000/12/15 under {a7}:
	// facts loaded: 7, rows stored: 6
	// fact bytes: 288 (unreduced: 336, savings: 14.3%), dimension bytes: 769
	//   (Time.day, URL.url)                      rows=3        bytes=144
	//   (Time.month, URL.domain)                 rows=3        bytes=144
	//
	// insert(bad) rejected, specification unchanged:
	//   spec: Insert rejected: growing violated: cells selected by action bad at 2000/9/30 are no longer aggregated to (Time.quarter, URL.domain) at 2000/10/1
	//
	// insert(a8 anchored at 1999/12): ok
	// delete(a7): ok — the NOW-relative action is stopped
	// active action: a8: aggregate [Time.month, URL.domain] where Time.month <= 1999/12
	//
	// warehouse at 2003/6/1 (frozen policy):
	// facts loaded: 7, rows stored: 6
	// fact bytes: 288 (unreduced: 336, savings: 14.3%), dimension bytes: 769
	//   (Time.day, URL.url)                      rows=3        bytes=144
	//   (Time.month, URL.domain)                 rows=3        bytes=144
	//
	// monthly view:
	// fact_2: 1999/11, amazon.com | Number_of=1 Dwell_time=677 Delivery_time=2 Datasize=34
	// fact_4: 1999/12, amazon.com | Number_of=1 Dwell_time=12 Delivery_time=1 Datasize=34
	// fact_3: 1999/12, cnn.com | Number_of=2 Dwell_time=2489 Delivery_time=7 Datasize=94
	// fact_0: 2000/1, cnn.com | Number_of=2 Dwell_time=955 Delivery_time=10 Datasize=99
	// fact_1: 2000/1, gatech.edu | Number_of=1 Dwell_time=32 Delivery_time=1 Datasize=12
}
