package main

// Example runs the program and pins what it prints.
func Example() {
	main()
	// Output:
	// reduced MO at 2000/4/5 (7 facts):
	// fact_0: 1999/11/23, http://www.amazon.com/exec/obidos/tg/browse/-/465600/ref=b_tn_un/107-2047155-8802158 | Number_of=1 Dwell_time=677 Delivery_time=2 Datasize=34
	// fact_3: 1999/12/31, http://www.amazon.com/exec/obidos/tg/browse/-/465600/ref=b_tn_un/107-2047155-8802158 | Number_of=1 Dwell_time=12 Delivery_time=1 Datasize=34
	// fact_2: 1999/12/4, http://www.cnn.com/ | Number_of=1 Dwell_time=154 Delivery_time=2 Datasize=42
	// fact_1: 1999/12/4, http://www.cnn.com/health | Number_of=1 Dwell_time=2335 Delivery_time=5 Datasize=52
	// fact_6: 2000/1/20, http://www.cc.gatech.edu/ | Number_of=1 Dwell_time=32 Delivery_time=1 Datasize=12
	// fact_4: 2000/1/4, http://www.cnn.com/ | Number_of=1 Dwell_time=654 Delivery_time=4 Datasize=47
	// fact_5: 2000/1/4, http://www.cnn.com/health | Number_of=1 Dwell_time=301 Delivery_time=6 Datasize=52
	//
	// reduced MO at 2000/6/5 (6 facts):
	// fact_0: 1999/11, amazon.com | Number_of=1 Dwell_time=677 Delivery_time=2 Datasize=34
	// fact_3: 1999/12, amazon.com | Number_of=1 Dwell_time=12 Delivery_time=1 Datasize=34
	// fact_12: 1999/12, cnn.com | Number_of=2 Dwell_time=2489 Delivery_time=7 Datasize=94
	// fact_6: 2000/1/20, http://www.cc.gatech.edu/ | Number_of=1 Dwell_time=32 Delivery_time=1 Datasize=12
	// fact_4: 2000/1/4, http://www.cnn.com/ | Number_of=1 Dwell_time=654 Delivery_time=4 Datasize=47
	// fact_5: 2000/1/4, http://www.cnn.com/health | Number_of=1 Dwell_time=301 Delivery_time=6 Datasize=52
	//
	// reduced MO at 2000/11/5 (4 facts):
	// fact_03: 1999Q4, amazon.com | Number_of=2 Dwell_time=689 Delivery_time=3 Datasize=68
	// fact_12: 1999Q4, cnn.com | Number_of=2 Dwell_time=2489 Delivery_time=7 Datasize=94
	// fact_45: 2000/1, cnn.com | Number_of=2 Dwell_time=955 Delivery_time=10 Datasize=99
	// fact_6: 2000/1/20, http://www.cc.gatech.edu/ | Number_of=1 Dwell_time=32 Delivery_time=1 Datasize=12
	//
	// σ[Time.week <= 1999W48]: conservative 0 facts, liberal 2 facts
	//
	// π[URL][Number_of, Dwell_time]:
	// fact_03: amazon.com | Number_of=2 Dwell_time=689
	// fact_12: cnn.com | Number_of=2 Dwell_time=2489
	// fact_45: cnn.com | Number_of=2 Dwell_time=955
	// fact_6: http://www.cc.gatech.edu/ | Number_of=1 Dwell_time=32
	//
	// α[Time.month, URL.domain] (availability):
	// fact_03: 1999Q4, amazon.com | Number_of=2 Dwell_time=689 Delivery_time=3 Datasize=68
	// fact_12: 1999Q4, cnn.com | Number_of=2 Dwell_time=2489 Delivery_time=7 Datasize=94
	// fact_45: 2000/1, cnn.com | Number_of=2 Dwell_time=955 Delivery_time=10 Datasize=99
	// fact_6: 2000/1, gatech.edu | Number_of=1 Dwell_time=32 Delivery_time=1 Datasize=12
	//
	// fact_03: dimension Time aggregated by action a2
	// fact_03: dimension URL aggregated by action a1
	// fact_12: dimension Time aggregated by action a2
	// fact_12: dimension URL aggregated by action a1
	// fact_45: dimension Time aggregated by action a1
	// fact_45: dimension URL aggregated by action a1
}
