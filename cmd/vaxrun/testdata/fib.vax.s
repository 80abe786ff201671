.globl _fib
_fib:	.word 0
	subl2	$8,sp
	cmpl	4(ap),$2
	jgeq	L1
	movl	4(ap),r0
	ret
L1:
	addl3	$-1,4(ap),r0
	pushl	r0
	calls	$1,_fib
	movl	r0,-4(fp)
	addl3	$-2,4(ap),r0
	pushl	r0
	calls	$1,_fib
	movl	r0,-8(fp)
	addl3	-4(fp),-8(fp),r0
	ret
.globl _main
_main:	.word 0
	pushl	$10
	calls	$1,_fib
	ret
